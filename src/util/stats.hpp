// Per-phase statistics collected by the pipeline and reported by benches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace lasagna::util {

/// Everything we record about one pipeline phase (map/sort/reduce/...).
struct PhaseStats {
  std::string name;
  double wall_seconds = 0.0;     ///< measured wall-clock time
  double modeled_seconds = 0.0;  ///< modeled time (device+disk+network model)
  double device_seconds = 0.0;   ///< modeled device component
  double disk_seconds = 0.0;     ///< modeled disk component
  double host_seconds = 0.0;     ///< modeled host component (CPU staging)
  /// (device + disk + host) / modeled. 1.0 for serial phases; approaches
  /// the lane count when an overlapped phase hides all lanes but the
  /// slowest behind each other.
  double overlap_efficiency = 1.0;
  std::uint64_t peak_host_bytes = 0;
  std::uint64_t peak_device_bytes = 0;
  std::uint64_t disk_bytes_read = 0;
  std::uint64_t disk_bytes_written = 0;
  /// Counters from the global obs::MetricsRegistry that moved during the
  /// phase, as name-sorted (name, delta) pairs, the injected faults among
  /// them.
  obs::MetricsRegistry::Snapshot metrics = {};
  /// True when the phase was restored from a checkpoint instead of run.
  bool resumed = false;
};

/// One node's modeled lane seconds within one phase (a single-node run has
/// one node).
struct NodePhaseBreakdown {
  double disk_seconds = 0.0;
  double device_seconds = 0.0;
  double host_seconds = 0.0;
  double network_seconds = 0.0;
  [[nodiscard]] double total() const {
    return disk_seconds + device_seconds + host_seconds + network_seconds;
  }
};

/// Ordered collection of phase stats for one pipeline run.
class RunStats {
 public:
  void add(PhaseStats phase) { phases_.push_back(std::move(phase)); }

  [[nodiscard]] const std::vector<PhaseStats>& phases() const {
    return phases_;
  }

  /// Find a phase by name; throws std::out_of_range if absent.
  [[nodiscard]] const PhaseStats& phase(const std::string& name) const;
  [[nodiscard]] bool has_phase(const std::string& name) const;

  [[nodiscard]] double total_wall_seconds() const;
  [[nodiscard]] double total_modeled_seconds() const;
  [[nodiscard]] std::uint64_t total_disk_bytes() const;

  /// Phases restored from a checkpoint instead of executed.
  [[nodiscard]] unsigned resumed_phase_count() const;

  /// Render an aligned table like the paper's Tables II/III.
  [[nodiscard]] std::string to_table() const;

 private:
  std::vector<PhaseStats> phases_;
};

}  // namespace lasagna::util
