// Kernel dump capture: the golden-testbed half of the multi-backend
// harness (minimap2-acceleration style — see DESIGN.md "Kernel dump
// format"). A CaptureSession installed during a pipeline run records the
// exact inputs and outputs of each hot-kernel invocation into one
// versioned binary file per kernel; kernel_replay (kernel/replay.hpp)
// later re-executes any backend against those inputs and byte-compares
// against the captured outputs.
//
// On-disk format (little-endian, one `.lkd` file per kernel):
//
//   header   u32 magic 'LKDF'  u32 version  u32 kernel_id  u32 reserved
//            u64 record_count                (patched when the file closes)
//   record*  u64 meta[8]                     (kernel-specific dimensions)
//            u64 input_bytes  u64 output_bytes
//            u64 input_fnv1a  u64 output_fnv1a
//            byte input[input_bytes]  byte output[output_bytes]
//
// Meta layouts:
//   fingerprint:  {count, stride, primary_radix, primary_modulus,
//                  secondary_radix, secondary_modulus, 0, 0}
//                 input  = codes[count*stride] u8 ++ lengths[count] u16
//                 output = prefix[count*stride] ++ suffix[count*stride],
//                          Key128 each (tails past a read's length zero)
//   match_bounds: {needle_count, haystack_count, 0...}
//                 input  = needles ++ haystack, Key128 each
//                 output = lower ++ upper, u32 each
//   sort_pairs:   {count, 0...}
//                 input  = keys (Key128) ++ values (u64), pre-sort
//                 output = keys ++ values, post-sort
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "kernel/backend.hpp"
#include "util/installed.hpp"

namespace lasagna::kernel {

inline constexpr std::uint32_t kDumpMagic = 0x4644'4b4cu;  // "LKDF" on disk
inline constexpr std::uint32_t kDumpVersion = 1;

/// FNV-1a over a byte range (the dump format's checksum).
[[nodiscard]] std::uint64_t fnv1a_bytes(std::span<const std::byte> bytes);

/// Dump file name for one kernel, e.g. "fingerprint.lkd".
[[nodiscard]] std::string dump_filename(KernelId id);

/// One captured kernel invocation.
struct DumpRecord {
  std::array<std::uint64_t, 8> meta{};
  std::vector<std::byte> input;
  std::vector<std::byte> output;
};

/// Streaming writer for one kernel's dump file. Refuses to overwrite an
/// existing file unless `force` (satellite: dumps are expensive goldens;
/// clobbering one silently invalidates every replay that trusted it).
class DumpWriter {
 public:
  DumpWriter(const std::filesystem::path& path, KernelId kernel, bool force);
  ~DumpWriter();
  DumpWriter(const DumpWriter&) = delete;
  DumpWriter& operator=(const DumpWriter&) = delete;

  void append(const std::array<std::uint64_t, 8>& meta,
              std::span<const std::byte> input,
              std::span<const std::byte> output);

  /// Patch the header's record count and flush. Called by the destructor
  /// if not called explicitly.
  void close();

  [[nodiscard]] std::uint64_t records() const { return records_; }

 private:
  std::filesystem::path path_;
  std::ofstream out_;
  std::uint64_t records_ = 0;
  bool closed_ = false;
};

/// Validating reader for one dump file. The constructor checks magic,
/// version and kernel id; next() checks sizes and checksums. Any
/// malformed or truncated content throws std::runtime_error.
class DumpReader {
 public:
  explicit DumpReader(const std::filesystem::path& path);

  [[nodiscard]] KernelId kernel() const { return kernel_; }
  [[nodiscard]] std::uint64_t records() const { return records_; }

  /// Read the next record; false when all records were consumed.
  bool next(DumpRecord& record);

 private:
  std::filesystem::path path_;
  std::ifstream in_;
  std::uint64_t file_bytes_ = 0;
  KernelId kernel_{};
  std::uint64_t records_ = 0;
  std::uint64_t read_ = 0;
};

/// A capture session: one directory receiving the three kernel dump
/// files. Install process-wide with ScopedInstall; the dispatch wrappers
/// (kernel::run_*) then record every invocation (up to `limit_per_kernel`
/// each, to bound dump size on large runs). Thread-safe; capture order is
/// the call order under the session mutex, which the pipeline's serialized
/// kernel sites make deterministic for a fixed seed.
class CaptureSession : public util::Installed<CaptureSession> {
 public:
  CaptureSession(std::filesystem::path dir, std::size_t limit_per_kernel,
                 bool force);
  ~CaptureSession();

  void record(KernelId kernel, const std::array<std::uint64_t, 8>& meta,
              std::span<const std::byte> input,
              std::span<const std::byte> output);

  [[nodiscard]] std::uint64_t captured(KernelId kernel) const;
  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

  /// Close all writers (flushing headers). Implied by the destructor.
  void close();

 private:
  mutable std::mutex mutex_;
  std::filesystem::path dir_;
  std::size_t limit_;
  bool force_;
  std::map<KernelId, std::unique_ptr<DumpWriter>> writers_;
};

// -- capture helper for the dispatch wrappers ---------------------------------

/// Concatenate several byte views into one blob (capture is off the hot
/// path; the copy only happens while dumping).
[[nodiscard]] std::vector<std::byte> concat_bytes(
    std::initializer_list<std::span<const std::byte>> parts);

}  // namespace lasagna::kernel
