// The distributed reduce's three strategies (see cluster.hpp): the token
// ring, the partitioned speculative greedy, and the reduced-graph build.
// Each scans its partitions through scan_partition, checkpoints them as
// record-file sidecars, and hands its lane seconds back to the reduce
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
#include "io/record_stream.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace lasagna::dist::detail {
namespace {

using SpecProposal = core::SpeculativeResolver::Proposal;

// ---- checkpoint keys and sidecars ----------------------------------------
//
// Every sidecar is a record file written before the manifest entry that
// records its element count (for scan sidecars, one record per candidate:
// the entry's `candidates` counter); a restore reads it only when the file
// size matches that count, so an orphan, short or extended sidecar is
// ignored and its partition cleanly re-processed.

std::string ck_name(const char* format, unsigned key) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), format, key);
  return buf;
}

/// Token-ring partition: the token after it, and the edges it added.
std::string token_key(unsigned key) { return ck_name("reduce:l%08u", key); }
std::string token_bits_sidecar(unsigned key) {
  return ck_name("reduce.l%08u.token", key);
}
std::string token_edges_sidecar(unsigned key) {
  return ck_name("reduce.l%08u.edges", key);
}

/// Speculative scan: one partition's ranked candidate list. The committed
/// set lives on node 0, rewritten after every reconciliation round.
std::string spec_cand_key(unsigned key) {
  return ck_name("reduce:cand:l%08u", key);
}
std::string spec_cand_sidecar(unsigned key) {
  return ck_name("spec.cand.l%08u", key);
}
constexpr const char* kSpecCommittedKey = "reduce:spec:committed";
constexpr const char* kSpecCommittedSidecar = "spec.committed";

/// Fault-hook label for a reconciliation round boundary (node 0). Not a
/// manifest key — it exists so "node:...,match=reduce:spec:round" policies
/// can kill the master between supersteps.
std::string spec_round_key(unsigned round) {
  return ck_name("reduce:spec:round:%04u", round);
}

/// Reduced graph mode: one partition's candidate edges, in scan order.
/// Everything downstream of the scan (exchange, reduction, stitch) is a
/// pure function of the candidates and recomputes. The "reduce:" prefix
/// keeps existing fault-policy match specs applicable.
std::string full_cand_key(unsigned key) {
  return ck_name("reduce:fullcand:l%08u", key);
}
std::string full_cand_sidecar(unsigned key) {
  return ck_name("full.cand.l%08u", key);
}

template <typename T>
void write_sidecar(NodeContext& node, const std::string& name,
                   std::span<const T> records) {
  const std::filesystem::path path = node.checkpoint->sidecar(name);
  const std::filesystem::path tmp = path.string() + ".tmp";
  io::write_all_records<T>(tmp, records, node.io);
  std::filesystem::rename(tmp, path);
}

/// The sidecar's records when it holds exactly `count` of them.
template <typename T>
std::optional<std::vector<T>> read_sidecar(NodeContext& node,
                                           const std::string& name,
                                           std::uint64_t count) {
  const std::filesystem::path path = node.checkpoint->sidecar(name);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size % sizeof(T) != 0 || size / sizeof(T) != count) {
    return std::nullopt;
  }
  try {
    return io::read_all_records<T>(path, node.io);
  } catch (...) {
    return std::nullopt;
  }
}

// ---- partition scans -----------------------------------------------------

/// What one partition scan found and what it cost on its owner's lanes.
struct PartitionScan {
  core::PartitionReduceStats stats;
  double disk = 0.0;
  double device = 0.0;
  double host = 0.0;
};

/// Scan one of `node`'s sorted partitions — offering its candidates to
/// `graph`, or to `options.candidate_sink` when set — then, in checkpointed
/// runs, `persist` the result. Both are priced from the node's ledger; the
/// partition counter, the scan histogram and `did_work` are charged here.
PartitionScan scan_partition(
    ClusterRun& run, NodeContext& node, const core::SortedPartition& part,
    graph::StringGraph& graph, core::ReduceOptions options,
    const std::function<void(const core::PartitionReduceStats&)>& persist) {
  auto& registry = obs::MetricsRegistry::global();
  const LaneMark before = node.take_mark();
  options.streamed = run.config.streamed;
  PartitionScan scan;
  scan.stats = core::reduce_partition(node.ws, part, graph, options);
  node.did_work = true;
  registry.counter("dist.reduce.partitions").add(1);
  if (node.checkpoint != nullptr) persist(scan.stats);
  node.host_bytes += scan.stats.host_bytes;
  const NodeLanes spent = node.lanes_since(before);
  scan.disk = spent.disk;
  scan.device = spent.device;
  scan.host = spent.host;
  registry.histogram("dist.reduce.partition_scan_ps")
      .record(to_ps(scan.disk + scan.device + scan.host));
  return scan;
}

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

/// One partition's candidates as `T` records, restored from the sidecar
/// its manifest entry `key` records or else scanned — `make(u, v, overlap)`
/// builds each record — and checkpointed. `cost` is empty when restored.
template <typename T>
struct Candidates {
  std::vector<T> records;
  std::uint64_t count = 0;  ///< candidates offered (one record each)
  std::optional<PartitionScan> cost;
};

template <typename T, typename Make>
Candidates<T> scan_candidates(ClusterRun& run, NodeContext& node,
                              const core::SortedPartition& part,
                              const std::string& key,
                              const std::string& sidecar, Make make) {
  Candidates<T> found;
  if (node.checkpoint != nullptr && node.checkpoint->has(key)) {
    found.count = node.checkpoint->counter(key, "candidates");
    auto restored = read_sidecar<T>(node, sidecar, found.count);
    if (restored.has_value()) {
      found.records = std::move(*restored);
      return found;
    }
  }
  core::ReduceOptions options;
  options.candidate_sink = [&found, &make](graph::VertexId u,
                                           graph::VertexId v,
                                           std::uint16_t overlap,
                                           const gpu::Key128&) {
    found.records.push_back(make(u, v, overlap));
  };
  graph::StringGraph scratch(0);  // unused in sink mode
  found.cost = scan_partition(
      run, node, part, scratch, std::move(options),
      [&](const core::PartitionReduceStats& stats) {
        write_sidecar<T>(node, sidecar, found.records);
        node.checkpoint->record(key, {{"candidates", stats.candidates}});
      });
  found.count = found.cost->stats.candidates;
  return found;
}

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

}  // namespace

// ---- token ring ------------------------------------------------------------
//
// Partitions are processed in descending length order; the out-degree
// bit-vector is the token passed from the owner of partition l+1 to the
// owner of partition l, which serializes graph building while
// overlap-finding runs in parallel. Edge sets stay distributed until
// compress gathers them.

ReduceOutcome reduce_token(ClusterRun& run) {
  const ClusterConfig& config = run.config;
  DistributedResult& result = run.result;
  ReduceOutcome out = empty_outcome(run);
  for (auto& node : run.nodes) {
    node.graph = std::make_unique<graph::StringGraph>(result.read_count);
  }
  util::AtomicBitVector token(static_cast<std::size_t>(result.read_count) *
                              2);
  const std::vector<unsigned> descending(run.lengths.rbegin(),
                                         run.lengths.rend());

  // Restore the completed prefix (highest lengths first): import each
  // partition's edge delta into its owner's graph and take the token from
  // the last restored sidecar. An entry whose sidecars are missing or
  // stale ends the prefix — that partition re-runs cleanly.
  std::size_t restored = 0;
  unsigned previous_owner = UINT32_MAX;
  for (; restored < descending.size(); ++restored) {
    const unsigned l = descending[restored];
    NodeContext& node = run.nodes[owner_of(l, config.node_count)];
    const std::string ck = token_key(l);
    if (node.checkpoint == nullptr || !node.checkpoint->has(ck)) break;
    const auto words = read_sidecar<std::uint64_t>(
        node, token_bits_sidecar(l), token.byte_size() / 8);
    const auto edges = read_sidecar<graph::Edge>(
        node, token_edges_sidecar(l), node.checkpoint->counter(ck, "edges"));
    if (!words.has_value() || !edges.has_value()) break;
    node.graph->import_edges(*edges);
    token = util::AtomicBitVector::from_words(token.size(), *words);
    result.candidate_edges += node.checkpoint->counter(ck, "candidates");
    result.accepted_edges += node.checkpoint->counter(ck, "accepted");
    previous_owner = node.id;
  }

  // Event-driven model: overlap-finding parallel per owner, graph build
  // serialized by the token (paper III-E3). Restored partitions cost
  // nothing — that is the point of resuming.
  std::vector<OwnerClock> clocks(config.node_count);
  double token_time = 0.0;
  obs::Counter& c_token_hops =
      obs::MetricsRegistry::global().counter("dist.token.hops");

  for (std::size_t idx = restored; idx < descending.size(); ++idx) {
    const unsigned l = descending[idx];
    NodeContext& node = run.nodes[owner_of(l, config.node_count)];
    const core::SortedPartition* part = find_partition(node, l);
    if (part == nullptr) continue;

    io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
    on_node_op(node, token_key(l));

    node.graph->set_out_degree_bits(token);
    const PartitionScan scan = scan_partition(
        run, node, *part, *node.graph, {},
        [&](const core::PartitionReduceStats& stats) {
          // This partition's edges are exactly those whose source was
          // still free in the token it received.
          std::vector<graph::Edge> added;
          for (const graph::Edge& e : node.graph->edges()) {
            if (!token.test(e.src)) added.push_back(e);
          }
          const std::vector<std::uint64_t> words =
              node.graph->out_degree_bits().to_words();
          write_sidecar<std::uint64_t>(node, token_bits_sidecar(l), words);
          write_sidecar<graph::Edge>(node, token_edges_sidecar(l), added);
          node.checkpoint->record(token_key(l),
                                  {{"candidates", stats.candidates},
                                   {"accepted", stats.accepted},
                                   {"edges", added.size()}});
        });
    token = node.graph->out_degree_bits();
    result.candidate_edges += scan.stats.candidates;
    result.accepted_edges += scan.stats.accepted;

    // Model: t_o from this partition's lane costs, t_g from the candidate
    // volume.
    const double t_g = static_cast<double>(scan.stats.candidates) *
                       config.graph_insert_seconds;
    out.host[node.id] += scan.host;

    // Overlap-finding proceeds without the token.
    const double busy = clocks[node.id].advance(scan, config.streamed);
    double arrival = token_time;
    double hop = 0.0;
    if (previous_owner != node.id) {
      hop = transfer_seconds(
          run.topo, previous_owner == UINT32_MAX ? 0 : previous_owner,
          node.id, token.byte_size());
      arrival += hop;
      out.network[node.id] += hop;
      c_token_hops.add(1);
    }
    const double start = std::max(busy, arrival);
    if (obs::Profiler* prof = obs::Profiler::active()) {
      // This partition's contribution to the event clock: the token hop,
      // the scan time the token had to wait out (the straggler), then the
      // serialized insert.
      prof->chain(static_cast<int>(node.id), "network", "token-hop",
                  to_ps(hop));
      prof->chain(static_cast<int>(node.id),
                  config.streamed
                      ? clocks[node.id].lane()
                      : dominant_lane(scan.device, scan.disk, scan.host),
                  "straggler-scan", to_ps(start - arrival));
      prof->chain(static_cast<int>(node.id), "host", "graph-insert",
                  to_ps(t_g));
    }
    if (obs::Tracer* tracer = obs::Tracer::active()) {
      tracer->add_span(tracer->track("dist.token"), "l" + std::to_string(l),
                       -1, 0, to_ps(run.clock + start), to_ps(t_g),
                       {{"owner", node.id},
                        {"candidates", static_cast<std::int64_t>(
                                           scan.stats.candidates)}});
    }
    token_time = start + t_g;
    previous_owner = node.id;
  }
  out.modeled_seconds = token_time;  // event model, not max-node
  out.resumed = restored == descending.size() && !descending.empty();
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

/// The parallel candidate scans. Each partition's candidates are collected
/// separately, stamped with the owner's lane clock at scan completion
/// (`avail`): reconciliation pipelines over the rank frontier, so the
/// superstep for partition i can run as soon as partitions 0..i are
/// scanned, while later partitions are still scanning.
struct SpecScan {
  std::vector<std::vector<SpecProposal>> by_partition;  ///< [rank index]
  std::vector<double> avail;                            ///< [rank index]
  std::vector<OwnerClock> owners;
  bool resumed = false;
};

/// Scan every partition, resumable per partition from candidate sidecars
/// (restore skips the scan's disk reads and device kernels).
SpecScan scan_speculative(ClusterRun& run,
                          const std::vector<unsigned>& descending,
                          ReduceOutcome& out) {
  const unsigned node_count = run.config.node_count;
  SpecScan scan;
  scan.by_partition.resize(descending.size());
  scan.avail.assign(descending.size(), 0.0);
  scan.owners.resize(node_count);
  std::atomic<std::uint64_t> cand_total{0};
  std::atomic<unsigned> parts_total{0};
  std::atomic<unsigned> parts_restored{0};
  for_each_node(run.nodes, [&](NodeContext& node) {
    OwnerClock& clock = scan.owners[node.id];
    for (std::size_t idx = 0; idx < descending.size(); ++idx) {
      const unsigned l = descending[idx];
      if (owner_of(l, node_count) != node.id) continue;
      const core::SortedPartition* part = find_partition(node, l);
      if (part == nullptr) continue;
      parts_total.fetch_add(1, std::memory_order_relaxed);

      io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
      on_node_op(node, spec_cand_key(l));
      std::uint64_t offer = 0;
      Candidates<SpecProposal> found = scan_candidates<SpecProposal>(
          run, node, *part, spec_cand_key(l), spec_cand_sidecar(l),
          [idx, &offer](graph::VertexId u, graph::VertexId v,
                        std::uint16_t overlap) {
            return SpecProposal{
                u, v, overlap, 0,
                (static_cast<std::uint64_t>(idx) << 40) | offer++};
          });
      cand_total.fetch_add(found.count, std::memory_order_relaxed);
      scan.by_partition[idx] = std::move(found.records);
      if (!found.cost.has_value()) {
        parts_restored.fetch_add(1, std::memory_order_relaxed);
        scan.avail[idx] = clock.busy;  // restored partitions cost nothing
        continue;
      }
      out.host[node.id] += found.cost->host;
      scan.avail[idx] = clock.advance(*found.cost, run.config.streamed);
    }
  });
  run.result.candidate_edges = cand_total.load(std::memory_order_relaxed);
  scan.resumed = parts_total.load() > 0 &&
                 parts_restored.load() == parts_total.load();
  return scan;
}

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
          static_cast<double>(rescanned) * config.graph_probe_seconds;
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
      write_sidecar<graph::Edge>(master, kSpecCommittedSidecar,
                                 rec.committed_log);
      master.checkpoint->record(
          kSpecCommittedKey,
          {{"committed",
            static_cast<std::uint64_t>(rec.committed_log.size())}});
    }

    // Reconciliation is probe-bound: the master rank-merges the proposal
    // streams and bit-tests each against the committed set; only the
    // committed survivors pay the full insert cost (every replica applies
    // the broadcast delta in parallel, so the delta is charged once, not
    // per node). This is the wall-breaker: the token walk pays t_g per
    // *candidate*, reconciliation pays t_g only per *accepted edge*.
    const double apply_seconds =
        static_cast<double>(report.proposals) * config.graph_probe_seconds +
        static_cast<double>(report.committed) * config.graph_insert_seconds;
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
  const std::vector<unsigned> descending(run.lengths.rbegin(),
                                         run.lengths.rend());
  for (auto& node : run.nodes) {
    run.net.register_handler(
        node.id, kSpecProposals,
        [](unsigned, std::span<const std::byte>) { return Payload{}; });
    run.net.register_handler(
        node.id, kSpecCommit,
        [](unsigned, std::span<const std::byte>) { return Payload{}; });
  }

  const SpecScan scan = scan_speculative(run, descending, out);
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
    const auto edges = read_sidecar<graph::Edge>(
        master, kSpecCommittedSidecar,
        master.checkpoint->counter(kSpecCommittedKey, "committed"));
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
  for (std::size_t idx = 0; idx < descending.size(); ++idx) {
    if (scan.avail[idx] > ready) {
      ready = scan.avail[idx];
      ready_owner = owner_of(descending[idx], config.node_count);
    }
    if (scan.by_partition[idx].empty()) continue;
    const unsigned owner = owner_of(descending[idx], config.node_count);
    for (const SpecProposal& p : scan.by_partition[idx]) {
      rec.resolver.add_candidate(owner, p.u, p.v, p.length, p.rank);
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
//      and routes each candidate edge, in both twin directions, to the
//      owner of its source vertex;
//   2. owners upsert arrivals into canonically sorted adjacency —
//      insertion is order-independent, so the per-owner union equals the
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
          std::size_t offset = 0;
          while (offset < payload.size()) {
            const auto e = get<graph::Edge>(payload, offset);
            graph::upsert_directed_edge(block.adj[e.src - block.begin],
                                        e.src, e.dst, e.overlap);
            ++block.received;
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

/// Stage 1 outcome: every owner's scan clock.
struct FullScan {
  std::vector<OwnerClock> owners;
  bool resumed = false;
};

/// Stages 1+2: scan owned partitions and route every candidate, in both
/// twin directions, to its source's owner. Candidates are routed only
/// after a node finishes all of its scans, so a crash mid-scan leaves no
/// partial deliveries; resume re-routes everything deterministically from
/// the sidecars.
FullScan scan_and_route(ClusterRun& run, const VertexRanges& ranges,
                        ReduceOutcome& out) {
  const unsigned node_count = run.config.node_count;
  FullScan scan;
  scan.owners.resize(node_count);
  std::atomic<std::uint64_t> cand_total{0};
  std::atomic<unsigned> parts_total{0};
  std::atomic<unsigned> parts_restored{0};
  for_each_node(run.nodes, [&](NodeContext& node) {
    std::vector<graph::Edge> mine;
    io::FaultInjector::ScopedNode node_scope(static_cast<int>(node.id));
    for (const auto& part : node.sorted) {
      const unsigned l = part.length;
      parts_total.fetch_add(1, std::memory_order_relaxed);
      on_node_op(node, full_cand_key(l));
      const Candidates<graph::Edge> found = scan_candidates<graph::Edge>(
          run, node, part, full_cand_key(l), full_cand_sidecar(l),
          [](graph::VertexId u, graph::VertexId v, std::uint16_t overlap) {
            return graph::Edge{u, v, overlap};
          });
      cand_total.fetch_add(found.count, std::memory_order_relaxed);
      mine.insert(mine.end(), found.records.begin(), found.records.end());
      if (!found.cost.has_value()) {
        parts_restored.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      out.host[node.id] += found.cost->host;
      scan.owners[node.id].advance(*found.cost, run.config.streamed);
    }

    // Route: both twin directions travel to their source's owner, so every
    // owner sees exactly the directed edges the single-node
    // FullStringGraph::add_edge would have stored in its block.
    std::vector<std::vector<graph::Edge>> outbound(node_count);
    for (const graph::Edge& e : mine) {
      if (e.src == e.dst || e.dst == graph::complement_vertex(e.src)) {
        continue;  // add_edge's self/complement guard
      }
      outbound[ranges.owner(e.src)].push_back(e);
      const graph::Edge twin{graph::complement_vertex(e.dst),
                             graph::complement_vertex(e.src), e.overlap};
      outbound[ranges.owner(twin.src)].push_back(twin);
    }
    for (unsigned k = 0; k < node_count; ++k) {
      send_chunked(run.net, node.id, k, kGraphEdges, outbound[k]);
    }
  });
  run.result.candidate_edges = cand_total.load(std::memory_order_relaxed);
  scan.resumed = parts_total.load() > 0 &&
                 parts_restored.load() == parts_total.load();
  return scan;
}

/// Stage 3: halo fetch + blocked transitive marking. Adjacency is immutable
/// for the whole barrier (concurrent reads only), which is the
/// byte-identity argument: every vertex's flags are the same pure function
/// FullStringGraph::reduce() computes.
void mark_transitive(ClusterRun& run, const VertexRanges& ranges,
                     std::vector<OwnerBlock>& blocks) {
  obs::Counter& c_halo =
      obs::MetricsRegistry::global().counter("dist.reduce.halo_vertices");
  const auto length_of = [&run](graph::VertexId w) {
    return run.read_lengths[w >> 1];
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

  const FullScan scan = scan_and_route(run, ranges, out);
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
        static_cast<double>(blocks[i].received) * config.graph_insert_seconds;
    const double mark_t = static_cast<double>(blocks[i].full_edges) * 2 *
                          sizeof(graph::Edge) / host_bw;
    out.host[i] += mark_t;
    out.network[i] = run.net.modeled_seconds(i);
    if (insert_t > insert_max) { insert_max = insert_t; insert_arg = i; }
    if (mark_t > mark_max) { mark_max = mark_t; mark_arg = i; }
    if (out.network[i] > net_max) { net_max = out.network[i]; net_arg = i; }
  }
  const unsigned slowest = slowest_owner(scan.owners);
  const double scan_max = scan.owners[slowest].busy;
  out.modeled_seconds = scan_max + insert_max + mark_max + net_max;
  if (obs::Profiler* prof = obs::Profiler::active()) {
    prof->chain(static_cast<int>(slowest), scan.owners[slowest].lane(),
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
