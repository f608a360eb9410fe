// Causal profiler: critical-path extraction over the modeled timeline of a
// single-node or cluster run.
//
// The tracer (trace.hpp) records flat spans; this layer records a *graph*.
// Every modeled span becomes a weighted node tagged with (phase, node, lane,
// kind), and three sources add edges between them:
//
//   - *chain* edges: the phase accounting (core::price_lanes and the
//     cluster's own phase arithmetic) knows exactly which term of the
//     overlap model each modeled second came from, so it appends chain
//     segments whose durations sum to the phase's modeled time — the
//     instrumented critical path, recorded as it is computed.
//   - *am* edges: dist::Network::request() records a send span on the
//     source node's network engine and a receive span on the target's, and
//     an edge between them — every cross-node hop is visible.
//   - *gather*/*broadcast* edges: the same AM edges, reclassified when the
//     caller wraps the requests in a Profiler::EdgeHint (the speculative
//     reduce's proposal gather and commit broadcast, the compress phase's
//     edge gather).
//
// The extractor walks the graph backwards from the latest span of each
// phase, preferring chain edges, and reports the path as per-(node, lane,
// kind) slices — so "straggler-scan at node 7" and "incast-wait at the
// master" are numbers in BENCH_distributed.json, not prose. The merged
// Chrome export renders one process row per node with flow arrows for the
// cross-node edges.
//
// Determinism: chain segments are recorded by the single-threaded phase
// accounting in a fixed order, and the walk prefers them, so the critical
// path report is a pure function of the modeled clocks — byte-identical
// across runs whenever the model itself is (always true with
// `streamed = false`; the fused streamed ingest batches block sorts by
// real arrival order, which can shift modeled lane bytes run to run). AM
// spans are stamped from concurrently-updated engine clocks and are *not*
// ordered deterministically — they appear in the merged trace
// (schema-validated, not byte-compared) but never in the report.
//
// Disabled cost: Profiler::active() is one acquire load (the FaultInjector
// pattern); nothing else runs. The profiler never feeds back into the
// modeled clocks, so enabling it cannot change contigs or modeled seconds.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/installed.hpp"

namespace lasagna::obs {

enum class ProfEdgeKind : std::uint8_t { kChain, kAm, kGather, kBroadcast };

[[nodiscard]] const char* to_string(ProfEdgeKind kind);

/// One weighted node of the causal graph, on the modeled clock.
struct ProfSpan {
  std::uint64_t id = 0;
  std::uint32_t phase = 0;  ///< index into Profiler's phase table
  int node = -1;            ///< simulated node id; -1 = cluster scope
  std::string lane;         ///< "device" | "disk" | "host" | "network"
  std::string kind;         ///< "straggler-scan", "incast-wait", ...
  std::int64_t start_ps = 0;
  std::int64_t dur_ps = 0;
  bool chain = false;  ///< recorded by the phase accounting as path member

  [[nodiscard]] std::int64_t end_ps() const { return start_ps + dur_ps; }
};

struct ProfEdge {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  ProfEdgeKind kind = ProfEdgeKind::kAm;
};

/// One (node, lane, kind) slice of a phase's critical path.
struct CriticalSlice {
  int node = -1;
  std::string lane;
  std::string kind;
  std::int64_t ps = 0;
};

struct PhaseCriticalPath {
  std::string name;
  std::int64_t base_ps = 0;      ///< cluster clock at phase start
  std::int64_t total_ps = 0;     ///< phase's modeled duration
  std::int64_t critical_ps = 0;  ///< sum of path span durations
  std::vector<CriticalSlice> slices;  ///< merged by key, largest first

  /// critical_ps / total_ps in percent (100 when total is zero).
  [[nodiscard]] double coverage_percent() const;
};

class Profiler : public util::Installed<Profiler> {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // -- recording -----------------------------------------------------------

  /// Open a phase at cluster clock `base_ps`. Called by the coordinator
  /// before the phase's parallel section so concurrent AM spans attach to
  /// it. Chain segments appended afterwards start at `base_ps`.
  void begin_phase(std::string name, std::int64_t base_ps);

  /// Close the current phase, recording its modeled duration.
  void end_phase(std::int64_t total_ps);

  /// Append a chain segment: a span starting at the phase cursor, plus a
  /// chain edge from the previous segment. Returns the span id (or the
  /// previous segment's id when `dur_ps <= 0`, which records nothing — the
  /// chain stays connected). Coordinator thread only.
  std::uint64_t chain(int node, std::string_view lane, std::string_view kind,
                      std::int64_t dur_ps);

  /// Add a free (non-chain) span at an absolute modeled time. Thread-safe.
  std::uint64_t span(int node, std::string_view lane, std::string_view kind,
                     std::int64_t start_ps, std::int64_t dur_ps);

  /// Add a free span whose start is an engine-local clock (picoseconds
  /// since the phase's counter reset): the current phase base is added.
  std::uint64_t engine_span(int node, std::string_view lane,
                            std::string_view kind, std::int64_t local_start_ps,
                            std::int64_t dur_ps);

  void edge(std::uint64_t from, std::uint64_t to, ProfEdgeKind kind);

  /// Reclassify AM edges recorded while alive (coordinator thread): the
  /// speculative reduce marks its proposal gathers and commit broadcasts,
  /// compress marks its edge gather. Nested hints restore on destruction.
  class EdgeHint {
   public:
    explicit EdgeHint(ProfEdgeKind kind);
    ~EdgeHint();
    EdgeHint(const EdgeHint&) = delete;
    EdgeHint& operator=(const EdgeHint&) = delete;

   private:
    ProfEdgeKind previous_;
  };

  /// The edge kind AM instrumentation should record right now.
  [[nodiscard]] static ProfEdgeKind current_edge_kind();

  // -- extraction ----------------------------------------------------------

  [[nodiscard]] std::vector<ProfSpan> spans() const;
  [[nodiscard]] std::vector<ProfEdge> edges() const;

  /// Walk each phase's graph backwards from its terminal span, preferring
  /// chain edges; merge the path into (node, lane, kind) slices.
  [[nodiscard]] std::vector<PhaseCriticalPath> critical_paths() const;

  /// Deterministic critical-path report (integer fixed-point only).
  [[nodiscard]] std::string report_json() const;
  void write_report(const std::filesystem::path& path) const;

  /// Chrome trace with one process row per simulated node (pid 1 = cluster
  /// scope, pid 2+k = node k), a thread row per lane, and flow events for
  /// every cross-node edge. Each 'X' event carries its span id under args;
  /// flow events carry the endpoint span ids — the schema test resolves
  /// them.
  [[nodiscard]] std::string merged_chrome_trace_json() const;
  void write_merged_trace(const std::filesystem::path& path) const;

 private:
  struct Phase {
    std::string name;
    std::int64_t base_ps = 0;
    std::int64_t total_ps = 0;
    bool closed = false;
  };

  std::uint64_t add_span_locked(int node, std::string_view lane,
                                std::string_view kind, std::int64_t start_ps,
                                std::int64_t dur_ps, bool chain);

  mutable std::mutex mutex_;
  std::vector<Phase> phases_;
  std::vector<ProfSpan> spans_;
  std::vector<ProfEdge> edges_;
  std::uint64_t next_id_ = 1;
  std::int64_t cursor_ps_ = 0;        ///< current phase's chain cursor
  std::uint64_t last_chain_id_ = 0;   ///< tail of the current chain

  static thread_local ProfEdgeKind hint_;
};

}  // namespace lasagna::obs
