// One phase close for the single-node pipeline and the simulated cluster.
//
// Each pipeline opens a PhaseLedger when a phase starts and closes it with
// each node's lane seconds (a single-node run is a one-node run). At open the
// ledger snapshots the metrics registry, starts the wall clock and the
// "phase:<name>" wall span, and opens the profiler phase at the run's
// modeled base; at close it fills in the wall seconds, metric deltas and
// overlap efficiency, draws the phase and lane rows on the tracer and the
// profiler, and appends the phase to the run's util::RunStats. The pipeline
// fills in what only it knows: modeled and lane seconds, disk bytes, memory
// peaks and `resumed`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace lasagna::core {

/// The trace rows a pipeline draws its phases on: the phase span's row, and
/// per node the prefix of its lane rows ("lane." gives "lane.disk").
struct PhaseRows {
  std::string phase;
  std::vector<std::string> node_lanes;
};

/// Seconds on the modeled clock, as integer picoseconds.
[[nodiscard]] std::int64_t to_ps(double seconds);

/// Name of the dominant lane among a node's device/disk/host costs — the
/// lane a critical-path slice bound by that node's work is attributed to.
[[nodiscard]] const char* dominant_lane(double device, double disk,
                                        double host);

/// A phase priced from its nodes' device, disk and host lanes.
struct LanePrice {
  /// Max over nodes of each node's lanes combined: their max when the
  /// lanes overlap, their sum otherwise.
  double modeled = 0.0;
  unsigned binding = 0;  ///< the first node whose lanes reach `modeled`
  double device = 0.0;   ///< lane maxima over nodes
  double disk = 0.0;
  double host = 0.0;
};

/// Price `nodes` and append the binding node's chain of kind `kind` to the
/// installed profiler: one segment on its dominant lane when the lanes
/// overlap, one segment per lane otherwise.
LanePrice price_lanes(std::span<const util::NodePhaseBreakdown> nodes,
                      bool overlapped, std::string_view kind);

class PhaseLedger {
 public:
  PhaseLedger(std::string name, util::RunStats& run, const PhaseRows& rows);

  PhaseLedger(const PhaseLedger&) = delete;
  PhaseLedger& operator=(const PhaseLedger&) = delete;

  /// Close the phase: `lane_work` is the lane time the phase was
  /// responsible for (its overlap efficiency is that over the modeled
  /// seconds); overlapped lanes all start at the phase base, serial ones
  /// are chained. Appends `phase` to the run's stats.
  void close(std::span<const util::NodePhaseBreakdown> nodes,
             double lane_work, bool overlapped);

  /// The phase record; the pipeline sets its modeled and lane seconds, disk
  /// bytes, peaks and `resumed` flag before close().
  util::PhaseStats phase;

 private:
  util::RunStats& run_;
  const PhaseRows& rows_;
  std::int64_t base_ps_;
  obs::MetricsRegistry::Snapshot counters_before_;
  obs::WallSpan wall_span_;
  util::WallTimer timer_;
};

}  // namespace lasagna::core
