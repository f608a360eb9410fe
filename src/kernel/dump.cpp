#include "kernel/dump.hpp"

#include <cstring>
#include <stdexcept>

#include "util/fnv.hpp"

namespace lasagna::kernel {

namespace {

void write_u32(std::ofstream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::ifstream& in, const char* what) {
  std::uint32_t v = 0;
  if (!in.read(reinterpret_cast<char*>(&v), sizeof(v))) {
    throw std::runtime_error(std::string("kernel dump truncated reading ") +
                             what);
  }
  return v;
}

std::uint64_t read_u64(std::ifstream& in, const char* what) {
  std::uint64_t v = 0;
  if (!in.read(reinterpret_cast<char*>(&v), sizeof(v))) {
    throw std::runtime_error(std::string("kernel dump truncated reading ") +
                             what);
  }
  return v;
}

}  // namespace

std::uint64_t fnv1a_bytes(std::span<const std::byte> bytes) {
  return util::fnv::fold_bytes(util::fnv::kOffset, bytes.data(),
                               bytes.size());
}

std::string dump_filename(KernelId id) {
  return std::string(kernel_name(id)) + ".lkd";
}

// ---- DumpWriter ------------------------------------------------------------

DumpWriter::DumpWriter(const std::filesystem::path& path, KernelId kernel,
                       bool force)
    : path_(path) {
  if (!force && std::filesystem::exists(path)) {
    throw std::runtime_error("kernel dump exists (use force to overwrite): " +
                             path.string());
  }
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("cannot open kernel dump for writing: " +
                             path.string());
  }
  write_u32(out_, kDumpMagic);
  write_u32(out_, kDumpVersion);
  write_u32(out_, static_cast<std::uint32_t>(kernel));
  write_u32(out_, 0);  // reserved
  write_u64(out_, 0);  // record count, patched by close()
}

DumpWriter::~DumpWriter() {
  try {
    close();
  } catch (...) {  // NOLINT(bugprone-empty-catch): destructors cannot throw
  }
}

void DumpWriter::append(const std::array<std::uint64_t, 8>& meta,
                        std::span<const std::byte> input,
                        std::span<const std::byte> output) {
  for (const std::uint64_t m : meta) write_u64(out_, m);
  write_u64(out_, input.size());
  write_u64(out_, output.size());
  write_u64(out_, fnv1a_bytes(input));
  write_u64(out_, fnv1a_bytes(output));
  out_.write(reinterpret_cast<const char*>(input.data()),
             static_cast<std::streamsize>(input.size()));
  out_.write(reinterpret_cast<const char*>(output.data()),
             static_cast<std::streamsize>(output.size()));
  if (!out_) {
    throw std::runtime_error("kernel dump write failed: " + path_.string());
  }
  ++records_;
}

void DumpWriter::close() {
  if (closed_) return;
  closed_ = true;
  out_.seekp(16);  // past magic/version/kernel/reserved
  write_u64(out_, records_);
  out_.flush();
  if (!out_) {
    throw std::runtime_error("kernel dump close failed: " + path_.string());
  }
  out_.close();
}

// ---- DumpReader ------------------------------------------------------------

DumpReader::DumpReader(const std::filesystem::path& path) : path_(path) {
  in_.open(path, std::ios::binary);
  if (!in_) {
    throw std::runtime_error("cannot open kernel dump: " + path.string());
  }
  file_bytes_ = std::filesystem::file_size(path);
  if (read_u32(in_, "magic") != kDumpMagic) {
    throw std::runtime_error("not a kernel dump (bad magic): " +
                             path.string());
  }
  const std::uint32_t version = read_u32(in_, "version");
  if (version != kDumpVersion) {
    throw std::runtime_error("unsupported kernel dump version " +
                             std::to_string(version) + ": " + path.string());
  }
  const std::uint32_t kernel = read_u32(in_, "kernel id");
  if (kernel < static_cast<std::uint32_t>(KernelId::kFingerprint) ||
      kernel > static_cast<std::uint32_t>(KernelId::kSortPairs)) {
    throw std::runtime_error("unknown kernel id " + std::to_string(kernel) +
                             " in dump: " + path.string());
  }
  kernel_ = static_cast<KernelId>(kernel);
  (void)read_u32(in_, "reserved");
  records_ = read_u64(in_, "record count");
}

bool DumpReader::next(DumpRecord& record) {
  if (read_ == records_) return false;
  for (std::uint64_t& m : record.meta) m = read_u64(in_, "record meta");
  const std::uint64_t input_bytes = read_u64(in_, "input size");
  const std::uint64_t output_bytes = read_u64(in_, "output size");
  const std::uint64_t input_fnv = read_u64(in_, "input checksum");
  const std::uint64_t output_fnv = read_u64(in_, "output checksum");
  // A corrupted size field must not drive a huge allocation before the
  // read or the checksum gets a chance to fail.
  const auto left = file_bytes_ - static_cast<std::uint64_t>(in_.tellg());
  if (input_bytes > left || output_bytes > left - input_bytes) {
    throw std::runtime_error(
        "kernel dump blob sizes exceed the bytes left in the file: " +
        path_.string());
  }
  record.input.resize(input_bytes);
  record.output.resize(output_bytes);
  if (!in_.read(reinterpret_cast<char*>(record.input.data()),
                static_cast<std::streamsize>(input_bytes)) ||
      !in_.read(reinterpret_cast<char*>(record.output.data()),
                static_cast<std::streamsize>(output_bytes))) {
    throw std::runtime_error("kernel dump truncated reading blobs: " +
                             path_.string());
  }
  if (fnv1a_bytes(record.input) != input_fnv) {
    throw std::runtime_error("kernel dump input checksum mismatch: " +
                             path_.string());
  }
  if (fnv1a_bytes(record.output) != output_fnv) {
    throw std::runtime_error("kernel dump output checksum mismatch: " +
                             path_.string());
  }
  ++read_;
  return true;
}

// ---- CaptureSession --------------------------------------------------------

CaptureSession::CaptureSession(std::filesystem::path dir,
                               std::size_t limit_per_kernel, bool force)
    : dir_(std::move(dir)), limit_(limit_per_kernel), force_(force) {
  std::filesystem::create_directories(dir_);
  // Fail fast at session open, not at the first mid-run capture: an
  // existing dump in the target directory means a golden would be
  // clobbered.
  if (!force_) {
    for (const KernelId id : {KernelId::kFingerprint, KernelId::kMatchBounds,
                              KernelId::kSortPairs}) {
      const auto path = dir_ / dump_filename(id);
      if (std::filesystem::exists(path)) {
        throw std::runtime_error(
            "kernel dump exists (use force to overwrite): " + path.string());
      }
    }
  }
}

CaptureSession::~CaptureSession() {
  try {
    close();
  } catch (...) {  // NOLINT(bugprone-empty-catch): destructors cannot throw
  }
}

void CaptureSession::record(KernelId kernel,
                            const std::array<std::uint64_t, 8>& meta,
                            std::span<const std::byte> input,
                            std::span<const std::byte> output) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = writers_.find(kernel);
  if (it == writers_.end()) {
    it = writers_
             .emplace(kernel, std::make_unique<DumpWriter>(
                                  dir_ / dump_filename(kernel), kernel,
                                  force_))
             .first;
  }
  if (it->second->records() >= limit_) return;
  it->second->append(meta, input, output);
}

std::uint64_t CaptureSession::captured(KernelId kernel) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = writers_.find(kernel);
  return it == writers_.end() ? 0 : it->second->records();
}

void CaptureSession::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, writer] : writers_) writer->close();
}

std::vector<std::byte> concat_bytes(
    std::initializer_list<std::span<const std::byte>> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<std::byte> out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace lasagna::kernel
