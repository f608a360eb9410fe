// Partitioned speculative greedy resolution with a reconciliation
// superstep — the conflict-free parallel alternative to the paper's
// token-serialized graph build (III-E3) and to a serial per-length
// bulk-synchronous superstep (the paper's IV-D proposal).
//
// Every candidate edge carries a *global rank*: partitions are processed
// in descending length order, and within a partition offers follow the
// canonical layout-invariant tie order (reduce_phase.cpp). Sequential
// greedy over all candidates in rank order is exactly the single-node
// reduce; the resolver reproduces that edge set without serializing on a
// token:
//
//   speculate — each domain (a node, or any partitioning that owns whole
//               partitions) runs greedy over its own live candidates in
//               rank order against the committed bits plus its local
//               speculative bits, and proposes its local acceptances.
//   reconcile — a serial master merges all proposals in global rank
//               order. A proposal that conflicts with the committed bits
//               *dies* (its blocker committed earlier, hence outranks or
//               legitimately precedes it — see below). Once any proposal
//               has died this round, every later proposal is *deferred*
//               to the next round (a death can resurrect a hidden
//               lower-rank candidate in the dead proposal's domain, and
//               that candidate could outrank — and block — a later
//               proposal). Proposals before the first death commit.
//   repeat    — domains that had a death are dirty and re-speculate.
//               Deferred proposals from death-free domains are *retained*
//               at the master (the owning domain's local state did not
//               change, so a replay would re-propose them verbatim) and
//               re-enter the next merge without being rescanned or
//               resent; a round with no deaths is the fixpoint.
//
// Soundness of each commit (it is in the sequential-greedy edge set) is by
// induction over rank: a committed blocker is itself sound, and any
// lower-rank sequential acceptance that would block a commit would have
// been proposed (or committed) before it this round. Every non-final
// round kills at least one candidate, so rounds <= deaths + 1 and the
// fixpoint equals sequential greedy exactly — byte-identical contigs.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/string_graph.hpp"

namespace lasagna::core {

class SpeculativeResolver {
 public:
  /// One local acceptance shipped to the reconciler. POD — it is also the
  /// distributed driver's wire format.
  struct Proposal {
    graph::VertexId u = 0;
    graph::VertexId v = 0;
    std::uint16_t length = 0;
    std::uint16_t pad = 0;
    std::uint64_t rank = 0;
  };
  static_assert(sizeof(Proposal) == 24);

  struct RoundReport {
    unsigned round = 0;
    std::uint64_t rescanned = 0;  ///< candidates re-examined by dirty domains
    std::uint64_t proposals = 0;
    std::uint64_t committed = 0;  ///< accepted pairs this round
    std::uint64_t conflicts = 0;  ///< deaths against committed bits
    std::uint64_t deferred = 0;
    std::uint64_t retained = 0;  ///< deferred proposals parked at the master
    std::vector<graph::Edge> delta;  ///< primary edges committed this round
    bool done = false;               ///< fixpoint reached
  };

  SpeculativeResolver(std::uint32_t read_count, unsigned domain_count);

  /// Register one candidate. Per domain, calls must arrive in ascending
  /// rank order (the natural order of the per-partition scan); ranks are
  /// globally unique. Appending *after* a fixpoint is allowed and re-opens
  /// resolution — sequential greedy's decisions on a rank prefix depend
  /// only on that prefix, so a pipelined driver may run each scanned
  /// partition's candidates to fixpoint while later partitions are still
  /// scanning (the reconciliation supersteps hide under the scan).
  void add_candidate(unsigned domain, graph::VertexId u, graph::VertexId v,
                     std::uint16_t length, std::uint64_t rank);

  /// Domains that must (re-)speculate in the next step. Initially every
  /// domain with candidates.
  [[nodiscard]] const std::vector<unsigned>& dirty_domains() const {
    return dirty_;
  }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] unsigned rounds() const { return round_; }

  /// Speculate phase for one dirty domain: local greedy over its live
  /// candidates. Safe to call concurrently for *different* domains (reads
  /// the committed graph, writes only domain-local state). `rescanned`
  /// (optional) receives the number of candidates examined.
  [[nodiscard]] std::vector<Proposal> speculate(
      unsigned domain, std::uint64_t* rescanned = nullptr);

  /// Reconcile phase (serial): merge the dirty domains' proposals, apply
  /// the death / defer-after-first-death / commit rule, update domain
  /// states and the dirty set. `per_domain` must hold one entry per
  /// dirty_domains() element, in the same order.
  RoundReport reconcile(const std::vector<std::vector<Proposal>>& per_domain);

  /// Convenience driver: run speculate/reconcile rounds to the fixpoint,
  /// accumulating the per-round reports.
  std::vector<RoundReport> run_to_fixpoint();

  /// The committed graph (the sequential-greedy edge set once done()).
  [[nodiscard]] const graph::StringGraph& graph() const { return graph_; }
  [[nodiscard]] graph::StringGraph& graph() { return graph_; }

 private:
  struct Candidate {
    graph::VertexId u = 0;
    graph::VertexId v = 0;
    std::uint16_t length = 0;
    std::uint64_t rank = 0;
  };
  struct Domain {
    std::vector<Candidate> live;       ///< rank-ascending
    std::vector<std::size_t> proposed; ///< indices into live, last speculate
  };
  /// A deferred proposal parked at the master. Valid only while its owner
  /// domain stays clean: a clean domain never re-speculates, so the live
  /// index is stable; the moment the domain dirties, its pending entries
  /// are discarded (the replay re-derives them).
  struct Pending {
    Proposal p;
    unsigned domain = 0;
    std::size_t live_idx = 0;
  };

  void mark_dirty(unsigned domain);

  graph::StringGraph graph_;
  std::vector<Domain> domains_;
  std::vector<unsigned> dirty_;
  std::vector<char> is_dirty_;
  std::vector<Pending> retained_;
  unsigned round_ = 0;
  bool done_ = false;
};

}  // namespace lasagna::core
