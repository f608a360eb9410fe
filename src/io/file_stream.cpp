#include "io/file_stream.hpp"

#include <cerrno>
#include <system_error>
#include <utility>

#include "io/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lasagna::io {

namespace {

detail::FileHandle open_file(const std::filesystem::path& path,
                             const char* mode) {
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr) {
    throw std::system_error(errno, std::generic_category(),
                            "open " + path.string());
  }
  return detail::FileHandle(f);
}

struct IoCounters {
  obs::Counter& bytes_read;
  obs::Counter& bytes_written;
  obs::Counter& read_ops;
  obs::Counter& write_ops;
  obs::Counter& seeks;
};

IoCounters& io_counters() {
  auto& r = obs::MetricsRegistry::global();
  static IoCounters counters{
      r.counter("io.bytes_read"), r.counter("io.bytes_written"),
      r.counter("io.read_ops"), r.counter("io.write_ops"),
      r.counter("io.seeks")};
  return counters;
}

}  // namespace

namespace detail {

void DiskSpan::add(obs::Tracer& tracer, const std::filesystem::path& path,
                   std::uint64_t offset_before, std::uint64_t offset_after,
                   std::int64_t wall_start_ns) {
  if (tracer_ != &tracer) {
    finish();
    tracer_ = &tracer;
    name_ = path.filename().string();
    wall_start_ns_ = wall_start_ns;
    first_offset_ = offset_before;
    bytes_ = 0;
    ops_ = 0;
  }
  wall_end_ns_ = tracer.now_ns();
  last_offset_ = offset_after;
  bytes_ += offset_after - offset_before;
  ++ops_;
}

void DiskSpan::finish() {
  obs::Tracer* tracer = std::exchange(tracer_, nullptr);
  if (tracer == nullptr || tracer != obs::Tracer::active()) return;
  const std::int64_t start = tracer->disk_ps(first_offset_);
  tracer->add_span(tracer->track(track_), std::move(name_), wall_start_ns_,
                   wall_end_ns_ - wall_start_ns_, start,
                   tracer->disk_ps(last_offset_) - start,
                   {{"bytes", static_cast<std::int64_t>(bytes_)},
                    {"ops", static_cast<std::int64_t>(ops_)}});
}

}  // namespace detail

ReadOnlyStream::ReadOnlyStream(const std::filesystem::path& path,
                               IoStats& stats)
    : path_(path), file_(open_file(path, "rb")), stats_(&stats) {
  size_ = std::filesystem::file_size(path);
}

std::size_t ReadOnlyStream::read_bytes(std::span<std::byte> out) {
  if (out.empty()) return 0;
  if (FaultInjector* injector = FaultInjector::active()) {
    injector->on_read(path_, out.size());
  }
  obs::Tracer* tracer = obs::Tracer::active();
  const std::int64_t wall_start = tracer != nullptr ? tracer->now_ns() : 0;
  const std::uint64_t offset_before = offset_;
  const std::size_t got =
      std::fread(out.data(), 1, out.size(), file_.get());
  if (got < out.size()) {
    if (std::ferror(file_.get()) != 0) {
      throw std::system_error(errno, std::generic_category(),
                              "read " + path_.string());
    }
    eof_ = true;
  }
  offset_ += got;
  if (got > 0) {
    stats_->add_read(got);
    io_counters().bytes_read.add(static_cast<std::int64_t>(got));
    io_counters().read_ops.add(1);
    if (tracer != nullptr) {
      span_.add(*tracer, path_, offset_before, offset_, wall_start);
    }
  }
  return got;
}

void ReadOnlyStream::skip_bytes(std::uint64_t bytes) {
  if (bytes == 0) return;
  if (std::fseek(file_.get(), static_cast<long>(bytes), SEEK_CUR) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "seek " + path_.string());
  }
  offset_ += bytes;
  if (offset_ >= size_) eof_ = offset_ > size_;
  io_counters().seeks.add(1);
  if (obs::Tracer* tracer = obs::Tracer::active()) {
    tracer->add_instant(tracer->track("disk.read"),
                        "seek:" + path_.filename().string(),
                        {{"bytes", static_cast<std::int64_t>(bytes)}});
  }
}

WriteOnlyStream::WriteOnlyStream(const std::filesystem::path& path,
                                 IoStats& stats)
    : path_(path), file_(open_file(path, "wb")), stats_(&stats) {}

void WriteOnlyStream::write_bytes(std::span<const std::byte> data) {
  if (data.empty()) return;
  if (file_ == nullptr) {
    throw std::logic_error("write to closed stream " + path_.string());
  }
  obs::Tracer* tracer = obs::Tracer::active();
  const std::int64_t wall_start = tracer != nullptr ? tracer->now_ns() : 0;
  const std::uint64_t offset_before = offset_;
  // Remainder loop: a single logical write survives injected short writes
  // by retrying the unwritten tail, the same contract POSIX write(2)
  // callers implement.
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t want = data.size() - off;
    if (FaultInjector* injector = FaultInjector::active()) {
      want = injector->on_write(path_, want);
    }
    const std::size_t put =
        std::fwrite(data.data() + off, 1, want, file_.get());
    if (put != want) {
      throw std::system_error(errno, std::generic_category(),
                              "write " + path_.string());
    }
    offset_ += put;
    stats_->add_write(put);
    io_counters().bytes_written.add(static_cast<std::int64_t>(put));
    io_counters().write_ops.add(1);
    off += put;
  }
  if (tracer != nullptr) {
    span_.add(*tracer, path_, offset_before, offset_, wall_start);
  }
}

void WriteOnlyStream::close() {
  // fclose writes the buffered tail, so its failure is a failed write.
  const int rc = file_ != nullptr ? std::fclose(file_.release()) : 0;
  const int err = errno;
  span_.finish();
  if (rc != 0) {
    throw std::system_error(err, std::generic_category(),
                            "close " + path_.string());
  }
}

}  // namespace lasagna::io
