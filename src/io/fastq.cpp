#include "io/fastq.hpp"

#include <fstream>
#include <stdexcept>

#include "io/fault_injector.hpp"

namespace lasagna::io {

bool SequenceReader::read_line(std::string& line) {
  if (!std::getline(*in_, line)) return false;
  // getline sets eof only when the line ran to the end of input without
  // a '\n'.
  bytes_ += line.size() + (in_->eof() ? 0 : 1);
  // Strip a trailing '\r' (files written on Windows).
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

bool SequenceReader::next(SequenceRecord& out) {
  // One injector consultation per record (FASTQ bypasses ReadOnlyStream, so
  // this is the read hook for sequence input; bytes are unknown up front).
  if (FaultInjector* injector = FaultInjector::active()) {
    injector->on_read(source_, 1);
  }
  // Skip blank lines between records.
  do {
    if (!read_line(line_)) return false;
  } while (line_.empty());

  if (line_.empty() || (line_[0] != '>' && line_[0] != '@')) {
    throw std::runtime_error("malformed sequence record near '" + line_ +
                             "': expected '>' or '@' header");
  }

  const bool fastq = line_[0] == '@';
  out.id = line_.substr(1);
  out.bases.clear();
  out.quality.clear();

  if (fastq) {
    if (!read_line(out.bases)) {
      throw std::runtime_error("FASTQ record truncated after header " +
                               out.id);
    }
    if (!read_line(line_) || line_.empty() || line_[0] != '+') {
      throw std::runtime_error("FASTQ record " + out.id +
                               " missing '+' separator");
    }
    if (!read_line(out.quality)) {
      throw std::runtime_error("FASTQ record " + out.id +
                               " missing quality line");
    }
    if (out.quality.size() != out.bases.size()) {
      throw std::runtime_error("FASTQ record " + out.id +
                               " quality/sequence length mismatch");
    }
  } else {
    // FASTA: sequence possibly wrapped over several lines, until the next
    // header or end of file.
    while (in_->peek() != '>' && in_->peek() != '@' &&
           read_line(line_)) {
      out.bases += line_;
    }
  }
  ++count_;
  return true;
}

std::vector<SequenceRecord> read_sequence_file(
    const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  SequenceReader reader(in);
  reader.set_source(path);
  std::vector<SequenceRecord> records;
  SequenceRecord record;
  while (reader.next(record)) records.push_back(record);
  return records;
}

void for_each_sequence(const std::filesystem::path& path,
                       const std::function<void(const SequenceRecord&)>& fn) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  SequenceReader reader(in);
  reader.set_source(path);
  SequenceRecord record;
  while (reader.next(record)) fn(record);
}

void write_fasta(std::ostream& out, const std::vector<SequenceRecord>& records,
                 std::size_t width) {
  for (const auto& r : records) {
    out << '>' << r.id << '\n';
    if (width == 0) {
      out << r.bases << '\n';
    } else {
      for (std::size_t i = 0; i < r.bases.size(); i += width) {
        out << r.bases.substr(i, width) << '\n';
      }
      if (r.bases.empty()) out << '\n';
    }
  }
}

void write_fasta_file(const std::filesystem::path& path,
                      const std::vector<SequenceRecord>& records,
                      std::size_t width) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot create " + path.string());
  write_fasta(out, records, width);
}

void write_fastq(std::ostream& out,
                 const std::vector<SequenceRecord>& records) {
  for (const auto& r : records) {
    out << '@' << r.id << '\n' << r.bases << "\n+\n";
    if (r.quality.size() == r.bases.size()) {
      out << r.quality << '\n';
    } else {
      out << std::string(r.bases.size(), 'I') << '\n';
    }
  }
}

void write_fastq_file(const std::filesystem::path& path,
                      const std::vector<SequenceRecord>& records) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot create " + path.string());
  write_fastq(out, records);
}

}  // namespace lasagna::io
