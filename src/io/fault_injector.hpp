// Deterministic, policy-driven fault injection for the I/O and device
// allocation layers.
//
// A FaultInjector holds a list of seeded policies ("fail the Nth write to a
// path containing 'sfx_'", "fail reads at rate 1e-4, transiently, twice").
// The sequential streams (ReadOnlyStream / WriteOnlyStream and everything
// layered on them: RecordReader/Writer, the async record streams), the FASTQ
// parser and the gpu::Device allocator consult the globally installed
// injector on every operation. Transient faults are absorbed by a bounded
// retry/backoff loop inside the hook; short writes truncate one write
// attempt (the stream retries the remainder, exactly as POSIX write(2)
// callers must); fatal faults surface as the typed io::FaultError.
//
// Disabled cost: with no injector installed, every hook is a single atomic
// pointer load (util::Installed) and a never-taken branch — no locks, no
// counters.
// Determinism: rate-based decisions hash (seed, per-policy op index), so a
// given seed produces the same fault schedule on every run.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/installed.hpp"

namespace lasagna::io {

/// Operation classes the injector can target. kAmSend and kNodeKill exist
/// for the distributed simulator: active-message sends and node-scoped
/// phase operations (the "kill node k mid-phase" recovery scenarios).
enum class FaultOp { kRead, kWrite, kAlloc, kAmSend, kNodeKill };

[[nodiscard]] const char* fault_op_name(FaultOp op);

/// Typed error thrown for injected faults that are (or became) fatal.
class FaultError : public std::runtime_error {
 public:
  FaultError(FaultOp op, bool transient, const std::string& what)
      : std::runtime_error(what), op_(op), transient_(transient) {}

  [[nodiscard]] FaultOp op() const { return op_; }
  /// True when the underlying fault class was transient but the retry
  /// budget was exhausted before it cleared.
  [[nodiscard]] bool transient() const { return transient_; }

 private:
  FaultOp op_;
  bool transient_;
};

/// One injection rule. A policy fires when its trigger matches (`nth`
/// matching operation, or seeded probability `rate` per matching operation);
/// what happens then depends on its class:
///   - transient == 0, short_bytes == 0: fatal — FaultError is thrown;
///   - transient == K > 0: the operation fails K consecutive attempts, each
///     absorbed by the injector's retry/backoff loop (FaultError only if K
///     exceeds the retry budget);
///   - short_bytes > 0 (writes only): the write is truncated to that many
///     bytes and the stream must retry the remainder.
struct FaultPolicy {
  FaultOp op = FaultOp::kRead;
  std::uint64_t nth = 0;        ///< fire on the Nth matching op (1-based); 0 = off
  double rate = 0.0;            ///< per-op fire probability (seeded, deterministic)
  unsigned transient = 0;       ///< consecutive failures before success
  std::size_t short_bytes = 0;  ///< writes: truncate the fired write to this
  std::string path_match;       ///< substring filter on the target path ("" = all)
  /// Restrict to one simulated cluster node (-1 = any). AM sends match on
  /// either endpoint; disk/alloc ops match the thread's ScopedNode scope.
  int node = -1;
  /// AM sends: extra one-way modeled delay charged to both endpoints when
  /// the policy fires (a congested or flaky link, not a lost message).
  double delay_seconds = 0.0;
};

/// A set of policies plus fault accounting. Thread-safe: policy state is
/// mutex-guarded (only ever touched when an injector is installed), the
/// counters are atomics.
class FaultInjector : public util::Installed<FaultInjector> {
 public:
  explicit FaultInjector(std::uint64_t seed = 0) : seed_(seed) {}

  // Policy state (trigger counters) is per-instance and not copyable.
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void add_policy(const FaultPolicy& policy);

  /// Retry budget for transient faults (per faulted operation).
  void set_max_retries(unsigned retries) { max_retries_ = retries; }
  [[nodiscard]] unsigned max_retries() const { return max_retries_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Parse a policy-spec string; throws std::invalid_argument on errors.
  ///
  ///   spec    := clause (';' clause)*
  ///   clause  := 'seed=' N | 'retries=' N | op ':' param (',' param)*
  ///   op      := 'read' | 'write' | 'alloc' | 'am' | 'node'
  ///   param   := 'nth=' N | 'rate=' P | 'transient=' K | 'short=' BYTES
  ///            | 'match=' SUBSTRING | 'node=' K | 'delay=' SECONDS
  ///
  /// Example: "seed=7;write:nth=3,match=sfx_;read:rate=0.001,transient=2"
  /// Node-scoped: "node:nth=2,node=1,match=sort" kills simulated node 1 on
  /// its second sort operation; "am:rate=0.01,transient=1" drops 1% of
  /// active messages (each retransmitted); "am:rate=0.05,delay=0.002"
  /// injects 2 ms of modeled link delay.
  static std::unique_ptr<FaultInjector> parse(const std::string& spec);

  // -- hooks (called by the instrumented layers) ---------------------------

  /// Consult before a read of `bytes` from `path`. Transient faults are
  /// retried internally (with backoff); throws FaultError on fatal faults or
  /// an exhausted retry budget.
  void on_read(const std::filesystem::path& path, std::size_t bytes);

  /// Consult before writing `bytes` to `path`. Returns the number of bytes
  /// the caller may write in this attempt: `bytes` normally, fewer when a
  /// short write is injected (never 0 — the caller's remainder loop is the
  /// retry). Throws FaultError as on_read does.
  [[nodiscard]] std::size_t on_write(const std::filesystem::path& path,
                                     std::size_t bytes);

  /// Consult before a device allocation of `bytes`.
  void on_alloc(std::uint64_t bytes);

  /// Outcome of consulting the injector for one active-message send.
  struct AmFault {
    unsigned drops = 0;          ///< lost sends absorbed by retransmission
    double delay_seconds = 0.0;  ///< extra one-way modeled link delay
  };

  /// Consult before delivering an active message from `src` to `dst`.
  /// `label` identifies the message (e.g. "am:1") for match= filters.
  /// Transient faults become drops (the network layer models the
  /// retransmissions); fatal faults throw FaultError as the disk hooks do.
  AmFault on_am(unsigned src, unsigned dst, const std::string& label);

  /// Consult at a node-scoped phase step (`label` like "map:block:3" or
  /// "reduce:l80"). A fired policy is always fatal — a node kill; the
  /// simulated restart is the driver resuming from its checkpoints.
  void on_node_op(unsigned node, const std::string& label);

  /// Thread-local simulated-node scope: while a ScopedNode is alive,
  /// read/write/alloc faults on this thread match policies with `node=`
  /// set to that node. -1 = unscoped (matches only node=-1 policies).
  class ScopedNode {
   public:
    explicit ScopedNode(int node);
    ~ScopedNode();
    ScopedNode(const ScopedNode&) = delete;
    ScopedNode& operator=(const ScopedNode&) = delete;

   private:
    int previous_;
  };
  [[nodiscard]] static int current_node();

  // -- accounting ----------------------------------------------------------

  /// Faults fired (one per fired trigger, counting transients and shorts).
  [[nodiscard]] std::uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }
  /// Retry attempts performed to absorb transient/short faults.
  [[nodiscard]] std::uint64_t retried() const {
    return retried_.load(std::memory_order_relaxed);
  }
  /// Faults that escalated to a thrown FaultError.
  [[nodiscard]] std::uint64_t fatal() const {
    return fatal_.load(std::memory_order_relaxed);
  }

 private:
  struct PolicyState {
    FaultPolicy policy;
    std::uint64_t ops = 0;  ///< matching operations seen so far
  };

  /// Result of evaluating all policies for one operation.
  struct Decision {
    bool fired = false;
    unsigned transient = 0;         ///< failures to absorb before success
    std::size_t short_bytes = 0;    ///< nonzero: truncate this write
    double delay_seconds = 0.0;     ///< AM sends: injected link delay
    bool fatal = false;
  };

  /// `node_a`/`node_b` are the simulated nodes involved (-1 = none): the
  /// thread's ScopedNode for disk/alloc ops, both endpoints for AM sends.
  Decision evaluate(FaultOp op, const std::string& path, int node_a,
                    int node_b);
  /// Shared transient-absorption loop; throws when the budget is exhausted.
  void absorb(FaultOp op, const Decision& decision, const std::string& what);

  std::uint64_t seed_;
  unsigned max_retries_ = 8;
  std::mutex mutex_;
  std::vector<PolicyState> policies_;
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> retried_{0};
  std::atomic<std::uint64_t> fatal_{0};
};

}  // namespace lasagna::io
