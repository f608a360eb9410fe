#include "core/phase_ledger.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/profile.hpp"

namespace lasagna::core {

std::int64_t to_ps(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e12));
}

const char* dominant_lane(double device, double disk, double host) {
  if (device >= disk && device >= host) return "device";
  return disk >= host ? "disk" : "host";
}

LanePrice price_lanes(std::span<const util::NodePhaseBreakdown> nodes,
                      bool overlapped, std::string_view kind) {
  LanePrice price;
  for (unsigned k = 0; k < nodes.size(); ++k) {
    const util::NodePhaseBreakdown& l = nodes[k];
    const double node_modeled =
        overlapped
            ? std::max({l.device_seconds, l.disk_seconds, l.host_seconds})
            : l.device_seconds + l.disk_seconds + l.host_seconds;
    if (node_modeled > price.modeled) price.binding = k;
    price.modeled = std::max(price.modeled, node_modeled);
    price.device = std::max(price.device, l.device_seconds);
    price.disk = std::max(price.disk, l.disk_seconds);
    price.host = std::max(price.host, l.host_seconds);
  }
  obs::Profiler* prof = obs::Profiler::active();
  if (prof == nullptr) return price;
  const util::NodePhaseBreakdown& b = nodes[price.binding];
  const int node = static_cast<int>(price.binding);
  if (overlapped) {
    prof->chain(node,
                dominant_lane(b.device_seconds, b.disk_seconds,
                              b.host_seconds),
                kind,
                to_ps(std::max(
                    {b.device_seconds, b.disk_seconds, b.host_seconds})));
  } else {
    prof->chain(node, "device", kind, to_ps(b.device_seconds));
    prof->chain(node, "disk", kind, to_ps(b.disk_seconds));
    prof->chain(node, "host", kind, to_ps(b.host_seconds));
  }
  return price;
}

PhaseLedger::PhaseLedger(std::string name, util::RunStats& run,
                         const PhaseRows& rows)
    : run_(run),
      rows_(rows),
      base_ps_(to_ps(run.total_modeled_seconds())),
      counters_before_(obs::MetricsRegistry::global().counters_snapshot()),
      wall_span_(obs::wall_span("phase", [&] { return "phase:" + name; })) {
  if (obs::Profiler* prof = obs::Profiler::active()) {
    prof->begin_phase(name, base_ps_);
  }
  phase.name = std::move(name);
}

void PhaseLedger::close(std::span<const util::NodePhaseBreakdown> nodes,
                        double lane_work, bool overlapped) {
  phase.wall_seconds = timer_.seconds();
  wall_span_.finish();
  phase.overlap_efficiency =
      phase.modeled_seconds > 0.0 ? lane_work / phase.modeled_seconds : 1.0;
  phase.metrics = obs::snapshot_delta(
      counters_before_, obs::MetricsRegistry::global().counters_snapshot());

  obs::Tracer* tracer = obs::Tracer::active();
  obs::Profiler* prof = obs::Profiler::active();
  if (tracer != nullptr) {
    tracer->add_span(tracer->track(rows_.phase), phase.name, -1, 0, base_ps_,
                     to_ps(phase.modeled_seconds),
                     {{"resumed", phase.resumed ? 1 : 0},
                      {"nodes", static_cast<std::int64_t>(nodes.size())}});
  }
  if (tracer != nullptr || prof != nullptr) {
    for (unsigned k = 0; k < nodes.size(); ++k) {
      const util::NodePhaseBreakdown& b = nodes[k];
      const std::pair<const char*, double> lanes[] = {
          {"device", b.device_seconds},
          {"disk", b.disk_seconds},
          {"host", b.host_seconds},
          {"network", b.network_seconds}};
      std::int64_t cursor = base_ps_;
      for (const auto& [lane, seconds] : lanes) {
        if (seconds <= 0.0) continue;
        const std::int64_t start = overlapped ? base_ps_ : cursor;
        if (tracer != nullptr) {
          tracer->add_span(tracer->track(rows_.node_lanes[k] + lane),
                           phase.name, -1, 0, start, to_ps(seconds));
        }
        // Each lane is also a weighted, non-chain node of the causal graph:
        // context the merged trace renders per node.
        if (prof != nullptr) {
          prof->span(static_cast<int>(k), lane, "lane", start, to_ps(seconds));
        }
        if (!overlapped) cursor += to_ps(seconds);
      }
    }
  }
  // The pipeline appended the phase's chain before closing; the modeled
  // total is final, so the profiled phase can close too.
  if (prof != nullptr) prof->end_phase(to_ps(phase.modeled_seconds));
  run_.add(std::move(phase));
}

}  // namespace lasagna::core
