#include "seq/read_store.hpp"

#include <fstream>
#include <stdexcept>

#include "io/fastq.hpp"

namespace lasagna::seq {

std::uint32_t PackedReads::add(std::string_view bases) {
  const std::string clean =
      is_acgt(bases) ? std::string(bases) : sanitize(bases, offsets_.back());
  const std::uint64_t start = offsets_.back();
  const std::uint64_t end = start + clean.size();
  packed_.resize((end * 2 + 63) / 64, 0);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    const std::uint64_t bit = (start + i) * 2;
    packed_[bit >> 6] |=
        static_cast<std::uint64_t>(encode_base(clean[i])) << (bit & 63);
  }
  offsets_.push_back(end);
  max_length_ = std::max(max_length_, static_cast<unsigned>(clean.size()));
  return static_cast<std::uint32_t>(offsets_.size() - 2);
}

std::string PackedReads::decode(std::uint32_t id) const {
  const unsigned len = length(id);
  std::string out(len, '\0');
  for (unsigned i = 0; i < len; ++i) out[i] = decode_base(base(id, i));
  return out;
}

std::string PackedReads::decode_rc(std::uint32_t id) const {
  const unsigned len = length(id);
  std::string out(len, '\0');
  for (unsigned i = 0; i < len; ++i) {
    out[len - 1 - i] = decode_base(complement(base(id, i)));
  }
  return out;
}

PackedReads PackedReads::from_file(const std::filesystem::path& path) {
  PackedReads store;
  io::for_each_sequence(path, [&store](const io::SequenceRecord& r) {
    store.add(r.bases);
  });
  return store;
}

PackedReads PackedReads::from_files(
    const std::vector<std::filesystem::path>& paths) {
  PackedReads store;
  for (const auto& path : paths) {
    io::for_each_sequence(path, [&store](const io::SequenceRecord& r) {
      store.add(r.bases);
    });
  }
  return store;
}

PackedReads PackedReads::from_strings(const std::vector<std::string>& reads) {
  PackedReads store;
  for (const auto& r : reads) store.add(r);
  return store;
}

struct ReadBatchStream::Impl {
  std::vector<std::filesystem::path> paths;
  std::size_t file_index = 0;
  std::ifstream file;
  std::unique_ptr<io::SequenceReader> reader;
  std::uint64_t base = 0;  ///< file offset where `reader` started
  io::SequenceRecord pending;
  std::uint64_t pending_offset = 0;
  bool has_pending = false;
  bool done = false;

  Impl(std::vector<std::filesystem::path> in_paths, std::uint64_t offset)
      : paths(std::move(in_paths)), base(offset) {
    if (paths.empty()) {
      throw std::invalid_argument("ReadBatchStream: no input files");
    }
    open_current();
  }

  void open_current() {
    file.close();
    file.clear();
    file.open(paths[file_index], std::ios::binary);
    if (base > 0) file.seekg(static_cast<std::streamoff>(base));
    if (!file) {
      throw std::runtime_error("cannot open " +
                               paths[file_index].string());
    }
    reader = std::make_unique<io::SequenceReader>(file);
    reader->set_source(paths[file_index]);
  }

  /// Next record across file boundaries, with its offset in its file.
  bool next_record(io::SequenceRecord& out, std::uint64_t& offset) {
    for (;;) {
      offset = base + reader->bytes();
      if (reader->next(out)) return true;
      if (file_index + 1 >= paths.size()) return false;
      ++file_index;
      base = 0;
      open_current();
    }
  }
};

ReadBatchStream::ReadBatchStream(const std::filesystem::path& path,
                                 std::uint64_t max_batch_bases,
                                 BatchStart start)
    : ReadBatchStream(std::vector<std::filesystem::path>{path},
                      max_batch_bases, start) {}

ReadBatchStream::ReadBatchStream(std::vector<std::filesystem::path> paths,
                                 std::uint64_t max_batch_bases,
                                 BatchStart start)
    : impl_(std::make_unique<Impl>(std::move(paths), start.offset)),
      max_batch_bases_(max_batch_bases),
      next_id_(start.first_id) {
  if (max_batch_bases_ == 0) {
    throw std::invalid_argument("ReadBatchStream: zero batch size");
  }
}

ReadBatchStream::~ReadBatchStream() = default;

bool ReadBatchStream::next(ReadBatch& out) {
  out.first_id = next_id_;
  out.reads.clear();
  if (impl_->done) return false;

  std::uint64_t bases = 0;
  for (;;) {
    if (!impl_->has_pending) {
      if (!impl_->next_record(impl_->pending, impl_->pending_offset)) {
        impl_->done = true;
        break;
      }
      impl_->has_pending = true;
    }
    const std::uint64_t len = impl_->pending.bases.size();
    if (!out.reads.empty() && bases + len > max_batch_bases_) break;
    if (out.reads.empty()) out.offset = impl_->pending_offset;
    std::string clean = is_acgt(impl_->pending.bases)
                            ? std::move(impl_->pending.bases)
                            : sanitize(impl_->pending.bases, next_id_);
    out.reads.push_back(std::move(clean));
    impl_->has_pending = false;
    bases += len;
    ++next_id_;
  }
  return !out.reads.empty();
}

}  // namespace lasagna::seq
