// The distributed reduce's three strategies (see cluster.hpp): the token
// ring, the partitioned speculative greedy, and the reduced-graph build.
// All three find overlaps through one scan (scan_partitions): every owner
// scans its partitions on its own thread, longest first, into candidate
// lists checkpointed as one sidecar kind. A strategy only decides how the
// candidates become edges, and hands its lane seconds back to the reduce
// phase's close in cluster.cpp.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <span>

#include "core/reduce_phase.hpp"
#include "core/spec_resolve.hpp"
#include "dist/cluster_run.hpp"
#include "graph/transitive.hpp"
#include "io/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace lasagna::dist::detail {
namespace {

using SpecProposal = core::SpeculativeResolver::Proposal;

// ---- checkpoint keys and sidecars ----------------------------------------
//
// Every sidecar is saved before the manifest entry that covers it; a
// restore uses it only when the entry exists and the sidecar loads, so an
// orphan, torn or corrupted sidecar is ignored and its partition cleanly
// re-processed.

std::string ck_name(const char* format, unsigned key) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), format, key);
  return buf;
}

/// One partition's candidate list, in offer order: the manifest key (also
/// the partition's fault-hook label) and its sidecar. Every strategy
/// writes them, so a finished work dir of either greedy strategy resumes
/// under the other.
std::string cand_key(unsigned key) {
  return ck_name("reduce:cand:l%08u", key);
}
std::string cand_file(unsigned key) {
  return ck_name("reduce.cand.l%08u", key);
}

/// Speculative reduce: the committed set lives on node 0, rewritten after
/// every reconciliation round.
constexpr const char* kSpecCommittedKey = "reduce:spec:committed";
constexpr const char* kSpecCommittedFile = "spec.committed";

/// Fault-hook label for a reconciliation round boundary (node 0). Not a
/// manifest key — it exists so "node:...,match=reduce:spec:round" policies
/// can kill the master between supersteps.
std::string spec_round_key(unsigned round) {
  return ck_name("reduce:spec:round:%04u", round);
}

// ---- the candidate scan ----------------------------------------------------

/// What one partition scan cost on its owner's lanes.
struct PartitionScan {
  double disk = 0.0;
  double device = 0.0;
  double host = 0.0;
};

/// One owner's scan clock over its partitions. Streamed owners keep one
/// cumulative clock per lane and are ready at the max of the three — the
/// prefetch of the next partition's disk reads and device scans runs while
/// the host lane is still busy on the current one. Synchronous owners chain
/// every partition's lanes end to end.
struct OwnerClock {
  double disk = 0.0;
  double device = 0.0;
  double host = 0.0;
  double busy = 0.0;

  /// Charge one scanned partition; returns the owner's new ready time.
  double advance(const PartitionScan& scan, bool streamed) {
    disk += scan.disk;
    device += scan.device;
    host += scan.host;
    busy = streamed ? std::max({disk, device, host})
                    : busy + (scan.disk + scan.device + scan.host);
    return busy;
  }

  /// The lane a straggler-scan slice bound by this owner is charged to.
  [[nodiscard]] const char* lane() const {
    return dominant_lane(device, disk, host);
  }
};

/// One partition's candidates, as its owner's scan left them.
struct ScannedPartition {
  unsigned length = 0;
  unsigned owner = 0;
  std::vector<graph::Edge> candidates;  ///< in offer order
  /// The scan's lane cost; empty when the candidates were restored.
  std::optional<PartitionScan> cost;
  /// The owner's scan clock when the candidates landed: a strategy that
  /// pipelines over the partitions may use them from then on.
  double avail = 0.0;
  /// The lane a wait for this scan is charged to: the owner's busiest
  /// lane so far when streamed, else the scan's own.
  const char* lane = nullptr;
};

struct CandidateScan {
  std::vector<ScannedPartition> partitions;  ///< descending length
  std::vector<OwnerClock> owners;
  bool resumed = false;  ///< every partition restored from its sidecar
};

const core::SortedPartition* find_partition(const NodeContext& node,
                                            unsigned key) {
  const auto it =
      std::find_if(node.sorted.begin(), node.sorted.end(),
                   [key](const auto& p) { return p.length == key; });
  return it == node.sorted.end() ? nullptr : &*it;
}

void on_node_op(const NodeContext& node, const std::string& op) {
  if (io::FaultInjector* injector = io::FaultInjector::active()) {
    injector->on_node_op(node.id, op);
  }
}

/// The scan every strategy runs (paper III-E3: owners find overlaps in
/// parallel). Each node, on its own thread, takes its partitions longest
/// first and either restores a partition's candidates from their sidecar
/// or scans them — priced from the node's ledger, its host seconds added
/// to `out.host` — and checkpoints them. Sets the run's candidate count.
CandidateScan scan_partitions(ClusterRun& run, ReduceOutcome& out) {
  const unsigned node_count = run.config.node_count;
  CandidateScan scan;
  scan.owners.resize(node_count);
  for (auto l = run.lengths.rbegin(); l != run.lengths.rend(); ++l) {
    scan.partitions.push_back({*l, owner_of(*l, node_count), {}, {}, 0.0,
                               nullptr});
  }
  auto& registry = obs::MetricsRegistry::global();
  std::atomic<std::size_t> restored{0};
  for_each_node(run.nodes, [&](NodeContext& node) {
    io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
    OwnerClock& clock = scan.owners[node.id];
    for (ScannedPartition& p : scan.partitions) {
      if (p.owner != node.id) continue;
      const core::SortedPartition* part = find_partition(node, p.length);
      if (part == nullptr) continue;
      const std::string key = cand_key(p.length);
      on_node_op(node, key);
      if (node.checkpoint != nullptr && node.checkpoint->has(key)) {
        if (auto edges = node.checkpoint->load<graph::Edge>(
                cand_file(p.length))) {
          p.candidates = std::move(*edges);
          p.avail = clock.busy;  // restored partitions cost nothing
          restored.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      }

      const LaneMark before = node.take_mark();
      core::ReduceOptions options;
      options.streamed = run.config.streamed;
      options.candidate_sink = [&p](graph::VertexId u, graph::VertexId v,
                                    std::uint16_t overlap,
                                    const gpu::Key128&) {
        p.candidates.push_back({u, v, overlap});
      };
      graph::StringGraph unused(0);  // the sink takes every candidate
      const core::PartitionReduceStats stats =
          core::reduce_partition(node.ws, *part, unused, options);
      node.did_work = true;
      registry.counter("dist.reduce.partitions").add(1);
      if (node.checkpoint != nullptr) {
        node.checkpoint->save<graph::Edge>(cand_file(p.length), p.candidates);
        node.checkpoint->record(key, {});
      }
      node.host_bytes += stats.host_bytes;
      const NodeLanes spent = node.lanes_since(before);
      p.cost = PartitionScan{spent.disk, spent.device, spent.host};
      registry.histogram("dist.reduce.partition_scan_ps")
          .record(to_ps(spent.disk + spent.device + spent.host));
      out.host[node.id] += spent.host;
      p.avail = clock.advance(*p.cost, run.config.streamed);
      p.lane = run.config.streamed
                   ? clock.lane()
                   : dominant_lane(spent.device, spent.disk, spent.host);
    }
  });
  for (const ScannedPartition& p : scan.partitions) {
    run.result.candidate_edges += p.candidates.size();
  }
  scan.resumed = !scan.partitions.empty() &&
                 restored.load() == scan.partitions.size();
  return scan;
}

/// The complementary edge (v', u', l) stored with every edge (u, v, l).
graph::Edge twin(const graph::Edge& e) {
  return {graph::complement_vertex(e.dst), graph::complement_vertex(e.src),
          e.overlap};
}

ReduceOutcome empty_outcome(const ClusterRun& run) {
  ReduceOutcome out;
  out.host.assign(run.config.node_count, 0.0);
  out.network.assign(run.config.node_count, 0.0);
  return out;
}

/// Send `items` from `src` to `dst` as `type` messages of at most one
/// shuffle chunk each, handing every reply to `on_reply`.
template <typename T, typename OnReply>
void send_chunked(Network& net, unsigned src, unsigned dst,
                  std::uint16_t type, const std::vector<T>& items,
                  OnReply&& on_reply) {
  const std::size_t per_chunk =
      std::max<std::size_t>(1, kShuffleChunkBytes / sizeof(T));
  for (std::size_t base = 0; base < items.size(); base += per_chunk) {
    const std::size_t count = std::min(per_chunk, items.size() - base);
    Payload payload(count * sizeof(T));
    std::memcpy(payload.data(), items.data() + base, count * sizeof(T));
    on_reply(net.request(src, dst, type, payload));
  }
}

template <typename T>
void send_chunked(Network& net, unsigned src, unsigned dst,
                  std::uint16_t type, const std::vector<T>& items) {
  send_chunked(net, src, dst, type, items, [](const Payload&) {});
}

/// Modeled seconds for one `bytes`-sized transfer between two nodes
/// (request + acknowledgement latency, payload over the path's effective
/// bandwidth).
double transfer_seconds(const ClusterTopology& topo, unsigned from,
                        unsigned to, std::uint64_t bytes) {
  double s = 2 * topo.effective_latency(from, to);
  const double bw = topo.effective_bandwidth(from, to);
  if (std::isfinite(bw) && bw > 0.0) {
    s += static_cast<double>(bytes) / bw;
  }
  return s;
}

/// Modeled host cost of offering one candidate edge to the greedy graph:
/// t_g, the serialized component of the token reduce, 50 ns on the
/// paper's nodes. Scaled runs shrink the candidate count but not the
/// real-world insert cost each candidate stands for, so the cost grows
/// with the machine's time scale. That keeps the paper's t_o/t_g ratio,
/// which bounds reduce-phase scalability to t_o/t_g nodes.
double graph_insert_seconds(const ClusterConfig& config) {
  return 50e-9 * config.machine.time_scale;
}

/// Modeled cost of *probing* the greedy graph: an out-degree bit test with
/// no stores, 1 ns on the paper's nodes. The speculative reconciliation is
/// probe-bound, and only committed edges pay the full insert cost, which
/// is what lets it break the token's t_g wall.
double graph_probe_seconds(const ClusterConfig& config) {
  return 1e-9 * config.machine.time_scale;
}

}  // namespace

// ---- token ring ------------------------------------------------------------
//
// Partitions are processed in descending length order; the out-degree
// bit-vector is the token passed from the owner of partition l+1 to the
// owner of partition l, which serializes graph building while
// overlap-finding runs in parallel. Edge sets stay distributed until
// compress gathers them.
//
// The owners' scans run first; the ring then walks their candidates
// through one admission graph, whose out-degree bits are the token. The
// event model below prices the ring as the paper runs it: the token waits
// at each partition until its owner's scan lands (`avail`).

ReduceOutcome reduce_token(ClusterRun& run) {
  const ClusterConfig& config = run.config;
  ReduceOutcome out = empty_outcome(run);
  const CandidateScan scan = scan_partitions(run, out);

  graph::StringGraph token(run.result.read_count);
  double token_time = 0.0;
  unsigned previous_owner = UINT32_MAX;
  obs::Counter& c_token_hops =
      obs::MetricsRegistry::global().counter("dist.token.hops");

  for (const ScannedPartition& p : scan.partitions) {
    // Each accepted edge and its twin stay with the partition's owner.
    std::vector<graph::Edge>& owned = run.nodes[p.owner].edges;
    for (const graph::Edge& e : p.candidates) {
      if (token.try_add_edge(e.src, e.dst, e.overlap)) {
        owned.push_back(e);
        owned.push_back(twin(e));
        ++run.result.accepted_edges;
      }
    }
    if (!p.cost.has_value()) {
      previous_owner = p.owner;  // restored partitions cost nothing
      continue;
    }

    // Event-driven model: overlap-finding parallel per owner, graph build
    // serialized by the token (paper III-E3). t_o comes from this
    // partition's lane costs, t_g from the candidate volume.
    const double t_g = static_cast<double>(p.candidates.size()) *
                       graph_insert_seconds(config);
    double arrival = token_time;
    double hop = 0.0;
    if (previous_owner != p.owner) {
      hop = transfer_seconds(run.net.topology(),
                             previous_owner == UINT32_MAX ? 0 : previous_owner,
                             p.owner, token.out_degree_bits().byte_size());
      arrival += hop;
      out.network[p.owner] += hop;
      c_token_hops.add(1);
    }
    const double start = std::max(p.avail, arrival);
    if (obs::Profiler* prof = obs::Profiler::active()) {
      // This partition's contribution to the event clock: the token hop,
      // the scan time the token had to wait out (the straggler), then the
      // serialized insert.
      prof->chain(static_cast<int>(p.owner), "network", "token-hop",
                  to_ps(hop));
      prof->chain(static_cast<int>(p.owner), p.lane, "straggler-scan",
                  to_ps(start - arrival));
      prof->chain(static_cast<int>(p.owner), "host", "graph-insert",
                  to_ps(t_g));
    }
    if (obs::Tracer* tracer = obs::Tracer::active()) {
      tracer->add_span(
          tracer->track("dist.token"), "l" + std::to_string(p.length), -1, 0,
          to_ps(run.clock + start), to_ps(t_g),
          {{"owner", p.owner},
           {"candidates", static_cast<std::int64_t>(p.candidates.size())}});
    }
    token_time = start + t_g;
    previous_owner = p.owner;
  }
  // Each owner's edge set by ascending source, the order compress gathers.
  for (NodeContext& node : run.nodes) {
    std::sort(node.edges.begin(), node.edges.end(),
              [](const graph::Edge& a, const graph::Edge& b) {
                return a.src < b.src;  // src unique in a greedy edge set
              });
  }
  out.modeled_seconds = token_time;  // event model, not max-node
  out.resumed = scan.resumed;
  return out;
}

// ---- partitioned speculative greedy ----------------------------------------
//
// Every node scans its owned partitions in parallel — there is no token to
// wait for, so the t_o·p scan cost divides by n — and every candidate gets
// a global rank (partition's position in the descending-length order, then
// the canonical in-partition offer index). The resolver's
// speculate/reconcile supersteps then rebuild exactly the sequential
// greedy edge set over that rank order, which IS the token result:
// contigs are byte-identical.
//
// Modeled time: max over nodes of the scan lanes, plus per round (max over
// dirty nodes of rescanned×t_g + proposals×t_g serial apply at the
// master), plus the master's network lane — proposals gather and commit
// deltas broadcast as real AM traffic, so incast at node 0 comes out of
// the engine model.

namespace {

/// The owner whose scan clock finishes last (the first, on ties).
unsigned slowest_owner(const std::vector<OwnerClock>& owners) {
  return static_cast<unsigned>(std::distance(
      owners.begin(),
      std::max_element(owners.begin(), owners.end(),
                       [](const OwnerClock& a, const OwnerClock& b) {
                         return a.busy < b.busy;
                       })));
}

/// Node 0's reconciliation state across supersteps.
struct Reconciliation {
  core::SpeculativeResolver resolver;
  /// Every committed edge so far, checkpointed after each round.
  std::vector<graph::Edge> committed_log;
  std::uint64_t conflicts = 0;
  std::uint64_t proposals = 0;
};

/// Run speculate/reconcile rounds until no domain is dirty, advancing
/// `clock` by each round's modeled cost.
void drain_to_fixpoint(ClusterRun& run, Reconciliation& rec, double& clock) {
  const ClusterConfig& config = run.config;
  core::SpeculativeResolver& resolver = rec.resolver;
  while (!resolver.done()) {
    const std::vector<unsigned> dirty = resolver.dirty_domains();
    if (dirty.empty()) break;
    const unsigned round_idx = resolver.rounds();
    if (io::FaultInjector* injector = io::FaultInjector::active()) {
      io::FaultInjector::ScopedNode master_scope(0);
      injector->on_node_op(0, spec_round_key(round_idx));
    }

    // Speculate: dirty nodes rescan their live candidates (parallel across
    // nodes — the model takes the max) and gather proposals at the master.
    double rescan_max = 0.0;
    unsigned rescan_arg = 0;  ///< dirty node whose rescan binds the max
    std::vector<std::vector<SpecProposal>> per_domain;
    per_domain.reserve(dirty.size());
    for (const unsigned n : dirty) {
      std::uint64_t rescanned = 0;
      per_domain.push_back(resolver.speculate(n, &rescanned));
      // A local replay probes the committed bits and the speculative
      // overlay — no stores — so it runs at probe speed.
      const double rescan_seconds =
          static_cast<double>(rescanned) * graph_probe_seconds(config);
      if (rescan_seconds > rescan_max) {
        rescan_max = rescan_seconds;
        rescan_arg = n;
      }
      Payload payload;
      for (const SpecProposal& p : per_domain.back()) put(payload, p);
      const obs::Profiler::EdgeHint hint(obs::ProfEdgeKind::kGather);
      (void)run.net.request(n, 0, kSpecProposals, payload);
    }

    const core::SpeculativeResolver::RoundReport report =
        resolver.reconcile(per_domain);
    rec.conflicts += report.conflicts;
    rec.proposals += report.proposals;

    // Broadcast the commit delta so every node's speculative bits can
    // incorporate it next round.
    Payload commit;
    for (const graph::Edge& e : report.delta) put(commit, e);
    {
      const obs::Profiler::EdgeHint hint(obs::ProfEdgeKind::kBroadcast);
      for (unsigned n = 1; n < config.node_count; ++n) {
        (void)run.net.request(0, n, kSpecCommit, commit);
      }
    }

    rec.committed_log.insert(rec.committed_log.end(), report.delta.begin(),
                             report.delta.end());
    NodeContext& master = run.nodes[0];
    if (master.checkpoint != nullptr) {
      master.checkpoint->save<graph::Edge>(kSpecCommittedFile,
                                           rec.committed_log);
      master.checkpoint->record(kSpecCommittedKey, {});
    }

    // Reconciliation is probe-bound: the master rank-merges the proposal
    // streams and bit-tests each against the committed set; only the
    // committed survivors pay the full insert cost (every replica applies
    // the broadcast delta in parallel, so the delta is charged once, not
    // per node). This is the wall-breaker: the token walk pays t_g per
    // *candidate*, reconciliation pays t_g only per *accepted edge*.
    const double apply_seconds =
        static_cast<double>(report.proposals) * graph_probe_seconds(config) +
        static_cast<double>(report.committed) * graph_insert_seconds(config);
    if (obs::Tracer* tracer = obs::Tracer::active()) {
      tracer->add_span(
          tracer->track("dist.spec"), "round" + std::to_string(report.round),
          -1, 0, to_ps(run.clock + clock), to_ps(rescan_max + apply_seconds),
          {{"proposals", static_cast<std::int64_t>(report.proposals)},
           {"conflicts", static_cast<std::int64_t>(report.conflicts)},
           {"deferred", static_cast<std::int64_t>(report.deferred)}});
    }
    if (obs::Profiler* prof = obs::Profiler::active()) {
      // The round waits on the slowest dirty node's rescan (parallel across
      // nodes, max taken) — a straggler wait — then on the master's serial
      // merge/probe/insert, the true reconcile cost.
      prof->chain(static_cast<int>(rescan_arg), "host", "straggler-scan",
                  to_ps(rescan_max));
      prof->chain(0, "host", "reconcile", to_ps(apply_seconds));
    }
    clock += rescan_max + apply_seconds;
  }
}

}  // namespace

ReduceOutcome reduce_speculative(ClusterRun& run) {
  const ClusterConfig& config = run.config;
  DistributedResult& result = run.result;
  ReduceOutcome out = empty_outcome(run);
  for (auto& node : run.nodes) {
    run.net.register_handler(
        node.id, kSpecProposals,
        [](unsigned, std::span<const std::byte>) { return Payload{}; });
    run.net.register_handler(
        node.id, kSpecCommit,
        [](unsigned, std::span<const std::byte>) { return Payload{}; });
  }

  const CandidateScan scan = scan_partitions(run, out);
  const unsigned slowest = slowest_owner(scan.owners);
  const double scan_seconds = scan.owners[slowest].busy;

  Reconciliation rec{
      core::SpeculativeResolver(result.read_count, config.node_count), {},
      0, 0};
  // Resume: pre-commit the checkpointed committed set (a sound subset of
  // the sequential-greedy edge set) and replay reconciliation over all
  // candidates. Restored commits simply die against their own bits, so
  // the fixpoint is unchanged (and reached in one round on a full
  // restore).
  NodeContext& master = run.nodes[0];
  if (master.checkpoint != nullptr &&
      master.checkpoint->has(kSpecCommittedKey)) {
    const auto edges =
        master.checkpoint->load<graph::Edge>(kSpecCommittedFile);
    for (const graph::Edge& e : edges.value_or(std::vector<graph::Edge>{})) {
      if (rec.resolver.graph().try_add_edge(e.src, e.dst, e.overlap)) {
        rec.committed_log.push_back(e);
      }
    }
  }

  // Pipelined horizon reconciliation. Sequential greedy's decisions on a
  // rank prefix depend only on that prefix, so the master runs each
  // partition's candidates to a fixpoint (one *superstep*, one or more
  // rounds) as soon as that partition's scan lands — while later, shorter
  // partitions are still scanning. `ready` is the running max of the
  // scan-completion stamps over the rank frontier: a superstep cannot start
  // before its partition is scanned, but rounds for partition i overlap the
  // scans of partitions > i. This is what keeps the reconciliation off the
  // critical path: the token walk must *also* wait for each partition's
  // scan, so the speculative clock trails it only by the (probe-bound)
  // round costs that don't fit under the remaining scan time.
  double clock = 0.0;
  double ready = 0.0;
  unsigned supersteps = 0;
  unsigned ready_owner = 0;  ///< owner whose scan stamp binds `ready`
  for (std::size_t idx = 0; idx < scan.partitions.size(); ++idx) {
    const ScannedPartition& part = scan.partitions[idx];
    if (part.avail > ready) {
      ready = part.avail;
      ready_owner = part.owner;
    }
    if (part.candidates.empty()) continue;
    // Rank: the partition's place in the descending order, then the offer.
    std::uint64_t rank = static_cast<std::uint64_t>(idx) << 40;
    for (const graph::Edge& e : part.candidates) {
      rec.resolver.add_candidate(part.owner, e.src, e.dst, e.overlap, rank++);
    }
    if (ready > clock) {
      // The superstep stalls until its partition's scan lands.
      if (obs::Profiler* prof = obs::Profiler::active()) {
        prof->chain(static_cast<int>(ready_owner),
                    scan.owners[ready_owner].lane(), "straggler-scan",
                    to_ps(ready - clock));
      }
    }
    clock = std::max(clock, ready);
    ++supersteps;
    drain_to_fixpoint(run, rec, clock);
  }
  // Trailing candidate-free partitions still cost scan time.
  const double tail = std::max({clock, ready, scan_seconds}) - clock;
  if (tail > 0.0) {
    if (obs::Profiler* prof = obs::Profiler::active()) {
      prof->chain(static_cast<int>(slowest), scan.owners[slowest].lane(),
                  "straggler-scan", to_ps(tail));
    }
  }
  clock = std::max({clock, ready, scan_seconds});

  result.reduce_rounds = rec.resolver.rounds();
  result.reduce_conflicts = rec.conflicts;
  result.reduce_supersteps = supersteps;
  result.accepted_edges = rec.resolver.graph().edge_count() / 2;
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("dist.reduce.rounds")
      .add(static_cast<std::int64_t>(rec.resolver.rounds()));
  registry.counter("dist.reduce.conflicts")
      .add(static_cast<std::int64_t>(rec.conflicts));
  registry.counter("dist.reduce.proposals")
      .add(static_cast<std::int64_t>(rec.proposals));
  registry.counter("dist.reduce.supersteps")
      .add(static_cast<std::int64_t>(supersteps));
  run.merged->import_edges(rec.resolver.graph().edges());

  for (auto& node : run.nodes) {
    out.network[node.id] = run.net.modeled_seconds(node.id);
  }
  out.modeled_seconds = clock + run.net.modeled_seconds(0);
  if (obs::Profiler* prof = obs::Profiler::active()) {
    // Proposal gathers and commit broadcasts all funnel through the
    // master's engines; their exposed time is the incast wait.
    prof->chain(0, "network", "incast-wait",
                to_ps(run.net.modeled_seconds(0)));
  }
  out.resumed = scan.resumed;
  return out;
}

// ---- reduced graph: distributed transitive reduction -----------------------
//
// Distributed transitive reduction + contig generation (arXiv:2207.04350).
// Vertex ids are range-partitioned into contiguous blocks, one per node:
//
//   1. every node scans its owned partitions in parallel (no token — the
//      full graph keeps all candidates, so there is nothing to coordinate)
//      and, after the scan barrier, routes each candidate edge, in both
//      twin directions, to the owner of its source vertex;
//   2. owners merge each arriving payload into canonically sorted
//      adjacency with the per-vertex merge FullStringGraph settles with —
//      the merge is order-independent, so the per-owner union equals the
//      single-node FullStringGraph block for block;
//   3. each owner fetches the boundary (halo) adjacency its block's
//      out-edges point into and marks transitive edges against the
//      immutable pre-sweep state — the same pure per-vertex function the
//      sequential and thread-pool reductions compute;
//   4. owners sweep their blocks and send every surviving edge to its
//      destination's owner as a unitig link (dst in-degree counting; src
//      out-degree-1 links are chain candidates);
//   5. node 0 gathers the links that survived the in-degree-1 test and
//      replays them in ascending source order — exactly
//      FullStringGraph::to_unitig_graph()'s insertion order, so contigs are
//      byte-identical to the single-node reduced pipeline at every node
//      count.

namespace {

/// One surviving full-graph edge on its way to the dst's owner: every link
/// bumps the dst's global in-degree; links whose src has out-degree 1 are
/// also unitig candidates.
struct UnitigLink {
  graph::VertexId src = 0;
  graph::VertexId dst = 0;
  std::uint16_t overlap = 0;
  std::uint16_t out_one = 0;  ///< src's post-reduction out-degree == 1
};

/// Range partition of the vertex ids over the nodes.
struct VertexRanges {
  std::uint64_t count = 0;
  std::uint64_t span = 1;
  unsigned nodes = 1;

  [[nodiscard]] unsigned owner(graph::VertexId v) const {
    return static_cast<unsigned>(std::min<std::uint64_t>(v / span, nodes - 1));
  }
};

struct OwnerBlock {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  ///< one past the last owned vertex
  std::vector<std::vector<graph::Edge>> adj;  ///< [v - begin]
  std::uint64_t received = 0;  ///< kGraphEdges arrivals (insert cost)
  /// Boundary adjacency fetched from other owners in stage 3; only
  /// vertices some owned edge points at are present.
  std::map<graph::VertexId, std::vector<graph::Edge>> halo;
  std::vector<std::vector<std::uint8_t>> transitive;  ///< [v - begin]
  std::vector<std::uint32_t> indeg;  ///< reduced-graph in-degree
  std::vector<graph::Edge> links;    ///< out-degree-1 candidates
  std::uint64_t full_edges = 0;      ///< directed, pre-sweep
  std::uint64_t removed = 0;
};

/// Handlers run serialized per destination node (the network's per-node
/// mutex), so plain fields are safe; the for_each_node barriers between
/// stages order the cross-stage reads.
void register_owner_handlers(ClusterRun& run,
                             std::vector<OwnerBlock>& blocks) {
  for (auto& node : run.nodes) {
    OwnerBlock& block = blocks[node.id];
    run.net.register_handler(
        node.id, kGraphEdges,
        [&block](unsigned, std::span<const std::byte> payload) {
          std::vector<graph::Edge> edges;
          edges.reserve(payload.size() / sizeof(graph::Edge));
          std::size_t offset = 0;
          while (offset < payload.size()) {
            edges.push_back(get<graph::Edge>(payload, offset));
          }
          block.received += edges.size();
          // Group by source and merge each group into its owned list.
          std::sort(edges.begin(), edges.end(),
                    [](const graph::Edge& a, const graph::Edge& b) {
                      return a.src < b.src;
                    });
          const std::span<graph::Edge> all(edges);
          for (std::size_t i = 0, j = 0; i < all.size(); i = j) {
            while (j < all.size() && all[j].src == all[i].src) ++j;
            graph::merge_out_edges(block.adj[all[i].src - block.begin],
                                   all.subspan(i, j - i));
          }
          return Payload{};
        });
    run.net.register_handler(
        node.id, kAdjFetch,
        [&block](unsigned, std::span<const std::byte> payload) {
          Payload reply;
          std::size_t offset = 0;
          while (offset < payload.size()) {
            const auto v = get<graph::VertexId>(payload, offset);
            const auto& adj = block.adj[v - block.begin];
            put(reply, v);
            put(reply, static_cast<std::uint32_t>(adj.size()));
            for (const graph::Edge& e : adj) put(reply, e);
          }
          return reply;
        });
    run.net.register_handler(
        node.id, kUnitigLinks,
        [&block](unsigned, std::span<const std::byte> payload) {
          std::size_t offset = 0;
          while (offset < payload.size()) {
            const auto link = get<UnitigLink>(payload, offset);
            ++block.indeg[link.dst - block.begin];
            if (link.out_one != 0) {
              block.links.push_back(
                  graph::Edge{link.src, link.dst, link.overlap});
            }
          }
          return Payload{};
        });
    run.net.register_handler(
        node.id, kGatherUnitigs,
        [&block](unsigned, std::span<const std::byte>) {
          Payload reply;
          for (const graph::Edge& e : block.links) {
            if (block.indeg[e.dst - block.begin] == 1) put(reply, e);
          }
          return reply;
        });
  }
}

/// Stage 1's routing: every node sends its partitions' candidates, in both
/// twin directions, to their sources' owners. Routing starts after the
/// scan barrier, so a crash mid-scan leaves no partial deliveries; resume
/// re-routes everything deterministically from the sidecars.
void route_candidates(ClusterRun& run, const VertexRanges& ranges,
                      const CandidateScan& scan) {
  const unsigned node_count = run.config.node_count;
  for_each_node(run.nodes, [&](NodeContext& node) {
    // Both twin directions travel to their source's owner, so every owner
    // sees exactly the directed edges the single-node
    // FullStringGraph::add_edge would have stored in its block.
    std::vector<std::vector<graph::Edge>> outbound(node_count);
    for (const ScannedPartition& part : scan.partitions) {
      if (part.owner != node.id) continue;
      for (const graph::Edge& e : part.candidates) {
        if (e.src == e.dst || e.dst == graph::complement_vertex(e.src)) {
          continue;  // add_edge's self/complement guard
        }
        outbound[ranges.owner(e.src)].push_back(e);
        outbound[ranges.owner(twin(e).src)].push_back(twin(e));
      }
    }
    for (unsigned k = 0; k < node_count; ++k) {
      send_chunked(run.net, node.id, k, kGraphEdges, outbound[k]);
    }
  });
}

/// Stage 3: halo fetch + blocked transitive marking. Adjacency is immutable
/// for the whole barrier (concurrent reads only), which is the
/// byte-identity argument: every vertex's flags are the same pure function
/// FullStringGraph::reduce() computes.
void mark_transitive(ClusterRun& run, const VertexRanges& ranges,
                     std::vector<OwnerBlock>& blocks) {
  obs::Counter& c_halo =
      obs::MetricsRegistry::global().counter("dist.reduce.halo_vertices");
  // 32-bit lengths: the marking's overhang arithmetic is unsigned.
  const auto length_of = [&run](graph::VertexId w) {
    return std::uint32_t{run.read_lengths[w >> 1]};
  };
  for_each_node(run.nodes, [&](NodeContext& node) {
    OwnerBlock& block = blocks[node.id];
    std::vector<std::vector<graph::VertexId>> wanted(run.config.node_count);
    for (const auto& adj : block.adj) {
      for (const graph::Edge& e : adj) {
        const unsigned owner = ranges.owner(e.dst);
        if (owner != node.id) wanted[owner].push_back(e.dst);
      }
    }
    for (unsigned k = 0; k < run.config.node_count; ++k) {
      auto& ids = wanted[k];
      if (ids.empty()) continue;
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      c_halo.add(static_cast<std::int64_t>(ids.size()));
      send_chunked(run.net, node.id, k, kAdjFetch, ids,
                   [&block](const Payload& reply) {
                     std::size_t offset = 0;
                     while (offset < reply.size()) {
                       const auto v = get<graph::VertexId>(reply, offset);
                       const auto n_edges = get<std::uint32_t>(reply, offset);
                       auto& halo = block.halo[v];
                       halo.reserve(n_edges);
                       for (std::uint32_t j = 0; j < n_edges; ++j) {
                         halo.push_back(get<graph::Edge>(reply, offset));
                       }
                     }
                   });
    }

    static const std::vector<graph::Edge> kEmptyAdj;
    const auto adjacency_of =
        [&block](graph::VertexId w) -> const std::vector<graph::Edge>& {
      if (w >= block.begin && w < block.end) return block.adj[w - block.begin];
      const auto it = block.halo.find(w);
      return it == block.halo.end() ? kEmptyAdj : it->second;
    };
    std::vector<std::uint8_t> mark(ranges.count, 0);
    for (std::uint64_t v = block.begin; v < block.end; ++v) {
      graph::mark_transitive_edges(block.adj[v - block.begin], length_of(v),
                                   adjacency_of, length_of, mark,
                                   block.transitive[v - block.begin]);
    }
  });
}

/// Stage 4: sweep + unitig-link exchange. Receivers only mutate their own
/// indeg/links (serialized by the network's per-node handler mutex), never
/// adjacency, so the sweep and the exchange share one barrier.
void exchange_unitig_links(ClusterRun& run, const VertexRanges& ranges,
                           std::vector<OwnerBlock>& blocks) {
  for_each_node(run.nodes, [&](NodeContext& node) {
    OwnerBlock& block = blocks[node.id];
    std::vector<std::vector<UnitigLink>> out(run.config.node_count);
    for (std::uint64_t v = block.begin; v < block.end; ++v) {
      auto& adj = block.adj[v - block.begin];
      const auto& flags = block.transitive[v - block.begin];
      block.full_edges += adj.size();
      std::size_t keep = 0;
      for (std::size_t i = 0; i < adj.size(); ++i) {
        if (flags[i] == 0) adj[keep++] = adj[i];
      }
      block.removed += adj.size() - keep;
      adj.resize(keep);
      const std::uint16_t out_one = keep == 1 ? 1 : 0;
      for (const graph::Edge& e : adj) {
        out[ranges.owner(e.dst)].push_back(
            UnitigLink{e.src, e.dst, e.overlap, out_one});
      }
    }
    for (unsigned k = 0; k < run.config.node_count; ++k) {
      send_chunked(run.net, node.id, k, kUnitigLinks, out[k]);
    }
  });
}

}  // namespace

ReduceOutcome reduce_reduced_graph(ClusterRun& run) {
  const ClusterConfig& config = run.config;
  DistributedResult& result = run.result;
  ReduceOutcome out = empty_outcome(run);
  VertexRanges ranges;
  ranges.count = static_cast<std::uint64_t>(result.read_count) * 2;
  ranges.span = std::max<std::uint64_t>(
      1, (ranges.count + config.node_count - 1) / config.node_count);
  ranges.nodes = config.node_count;

  std::vector<OwnerBlock> blocks(config.node_count);
  for (unsigned i = 0; i < config.node_count; ++i) {
    OwnerBlock& block = blocks[i];
    block.begin = std::min<std::uint64_t>(ranges.count, i * ranges.span);
    block.end = i + 1 == config.node_count
                    ? ranges.count
                    : std::min<std::uint64_t>(ranges.count,
                                              (i + 1) * ranges.span);
    block.adj.resize(block.end - block.begin);
    block.transitive.resize(block.end - block.begin);
    // Sized before any stage-4 link can arrive.
    block.indeg.assign(block.end - block.begin, 0);
  }
  register_owner_handlers(run, blocks);

  const CandidateScan scan = scan_partitions(run, out);
  route_candidates(run, ranges, scan);
  mark_transitive(run, ranges, blocks);
  exchange_unitig_links(run, ranges, blocks);

  // Stage 5: the master gathers and stitches. Replaying the surviving
  // links in ascending source order is exactly to_unitig_graph()'s
  // insertion order (each qualifying source contributes one edge), so the
  // merged graph — and therefore the contigs — match the single-node
  // reduced pipeline byte for byte.
  std::vector<graph::Edge> stitched;
  {
    const obs::Profiler::EdgeHint hint(obs::ProfEdgeKind::kGather);
    for (unsigned i = 0; i < config.node_count; ++i) {
      const std::vector<graph::Edge> links = get_array<graph::Edge>(
          run.net.request(0, i, kGatherUnitigs, {}));
      stitched.insert(stitched.end(), links.begin(), links.end());
    }
  }
  std::sort(stitched.begin(), stitched.end(),
            [](const graph::Edge& a, const graph::Edge& b) {
              return a.src < b.src;  // src unique among survivors
            });
  for (const graph::Edge& e : stitched) {
    run.merged->try_add_edge(e.src, e.dst, e.overlap);
  }
  result.accepted_edges = run.merged->edge_count() / 2;
  for (const OwnerBlock& block : blocks) {
    result.full_edges += block.full_edges;
    result.transitive_removed += block.removed;
  }
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("dist.reduce.unitig_links")
      .add(static_cast<std::int64_t>(stitched.size()));
  registry.counter("dist.reduce.full_edges")
      .add(static_cast<std::int64_t>(result.full_edges));
  registry.counter("dist.reduce.removed_edges")
      .add(static_cast<std::int64_t>(result.transitive_removed));

  // Model: the stages are barriers, so the phase is the sum of each stage's
  // slowest node — scan, insert (per arriving edge), mark (a host-lane pass
  // over the block's pre-sweep adjacency, the same bytes the single-node
  // reduction charges), and the boundary/link exchange on the network lane.
  const double host_bw = config.machine.host_bandwidth_bytes_per_sec;
  double insert_max = 0.0, mark_max = 0.0, net_max = 0.0;
  unsigned insert_arg = 0, mark_arg = 0, net_arg = 0;
  for (unsigned i = 0; i < config.node_count; ++i) {
    const double insert_t =
        static_cast<double>(blocks[i].received) * graph_insert_seconds(config);
    const double mark_t = static_cast<double>(blocks[i].full_edges) * 2 *
                          sizeof(graph::Edge) / host_bw;
    out.host[i] += mark_t;
    out.network[i] = run.net.modeled_seconds(i);
    if (insert_t > insert_max) { insert_max = insert_t; insert_arg = i; }
    if (mark_t > mark_max) { mark_max = mark_t; mark_arg = i; }
    if (out.network[i] > net_max) { net_max = out.network[i]; net_arg = i; }
  }
  // The owners' scan clocks, summed in ascending length order: a sum of
  // doubles depends on its order, and this one keeps every bit of the
  // modeled seconds this mode has always reported.
  std::vector<OwnerClock> owners(config.node_count);
  for (auto p = scan.partitions.rbegin(); p != scan.partitions.rend(); ++p) {
    if (p->cost.has_value()) {
      owners[p->owner].advance(*p->cost, config.streamed);
    }
  }
  const unsigned slowest = slowest_owner(owners);
  const double scan_max = owners[slowest].busy;
  out.modeled_seconds = scan_max + insert_max + mark_max + net_max;
  if (obs::Profiler* prof = obs::Profiler::active()) {
    prof->chain(static_cast<int>(slowest), owners[slowest].lane(),
                "straggler-scan", to_ps(scan_max));
    prof->chain(static_cast<int>(insert_arg), "host", "graph-insert",
                to_ps(insert_max));
    prof->chain(static_cast<int>(mark_arg), "host", "transitive-mark",
                to_ps(mark_max));
    prof->chain(static_cast<int>(net_arg), "network", "boundary-exchange",
                to_ps(net_max));
  }
  out.resumed = scan.resumed;
  return out;
}

}  // namespace lasagna::dist::detail
