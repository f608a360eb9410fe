#include "util/stats.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/timer.hpp"

namespace lasagna::util {

const PhaseStats& RunStats::phase(const std::string& name) const {
  for (const auto& p : phases_) {
    if (p.name == name) return p;
  }
  throw std::out_of_range("RunStats: no phase named " + name);
}

bool RunStats::has_phase(const std::string& name) const {
  for (const auto& p : phases_) {
    if (p.name == name) return true;
  }
  return false;
}

double RunStats::total_wall_seconds() const {
  double total = 0.0;
  for (const auto& p : phases_) total += p.wall_seconds;
  return total;
}

double RunStats::total_modeled_seconds() const {
  double total = 0.0;
  for (const auto& p : phases_) total += p.modeled_seconds;
  return total;
}

std::uint64_t RunStats::total_disk_bytes() const {
  std::uint64_t total = 0;
  for (const auto& p : phases_) {
    total += p.disk_bytes_read + p.disk_bytes_written;
  }
  return total;
}

unsigned RunStats::resumed_phase_count() const {
  unsigned count = 0;
  for (const auto& p : phases_) {
    if (p.resumed) ++count;
  }
  return count;
}

namespace {

/// Wall seconds with two decimals: format_duration rounds anything of 1 s
/// or more to whole seconds, too coarse for a phase's wall time.
std::string format_wall(double seconds) {
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%.2fs", seconds);
  return buf.data();
}

/// The delta of counter `name` in a phase's name-sorted metrics.
std::uint64_t metric(const PhaseStats& phase, std::string_view name) {
  const auto it = std::lower_bound(
      phase.metrics.begin(), phase.metrics.end(), name,
      [](const auto& entry, std::string_view key) {
        return entry.first < key;
      });
  return it != phase.metrics.end() && it->first == name
             ? static_cast<std::uint64_t>(it->second)
             : 0;
}

}  // namespace

std::string RunStats::to_table() const {
  std::ostringstream out;
  std::array<char, 320> line{};
  std::uint64_t injected = 0;
  std::uint64_t retried = 0;
  std::uint64_t fatal = 0;
  out << "phase       wall        modeled     device      disk        "
         "host        overlap  peak-host   peak-dev    disk-read   "
         "disk-write\n";
  for (const auto& p : phases_) {
    std::snprintf(
        line.data(), line.size(),
        "%-11s %-11s %-11s %-11s %-11s %-11s %-8.2f %-11s %-11s %-11s "
        "%-11s\n",
        p.name.c_str(), format_wall(p.wall_seconds).c_str(),
        format_duration(p.modeled_seconds).c_str(),
        format_duration(p.device_seconds).c_str(),
        format_duration(p.disk_seconds).c_str(),
        format_duration(p.host_seconds).c_str(), p.overlap_efficiency,
        format_bytes(p.peak_host_bytes).c_str(),
        format_bytes(p.peak_device_bytes).c_str(),
        format_bytes(p.disk_bytes_read).c_str(),
        format_bytes(p.disk_bytes_written).c_str());
    out << line.data();
    injected += metric(p, "io.faults_injected");
    retried += metric(p, "io.faults_retried");
    fatal += metric(p, "io.faults_fatal");
  }
  std::snprintf(line.data(), line.size(), "%-11s %-11s %-11s\n", "total",
                format_wall(total_wall_seconds()).c_str(),
                format_duration(total_modeled_seconds()).c_str());
  out << line.data();
  if (injected + retried + fatal > 0) {
    std::snprintf(line.data(), line.size(),
                  "faults: %llu injected, %llu retried, %llu fatal\n",
                  static_cast<unsigned long long>(injected),
                  static_cast<unsigned long long>(retried),
                  static_cast<unsigned long long>(fatal));
    out << line.data();
  }
  return out.str();
}

}  // namespace lasagna::util
