#include "io/fault_injector.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lasagna::io {

namespace {
thread_local int t_current_node = -1;
}  // namespace

FaultInjector::ScopedNode::ScopedNode(int node) : previous_(t_current_node) {
  t_current_node = node;
}

FaultInjector::ScopedNode::~ScopedNode() { t_current_node = previous_; }

int FaultInjector::current_node() { return t_current_node; }

namespace {

struct FaultCounters {
  obs::Counter& injected;
  obs::Counter& retried;
  obs::Counter& fatal;
};

FaultCounters& fault_counters() {
  auto& r = obs::MetricsRegistry::global();
  static FaultCounters counters{r.counter("io.faults_injected"),
                                r.counter("io.faults_retried"),
                                r.counter("io.faults_fatal")};
  return counters;
}

/// Wall-only instant marking where in the timeline a fault fired (injection
/// timing follows real thread interleaving, so these never enter the
/// deterministic modeled export).
void trace_fault(FaultOp op, const char* kind) {
  if (obs::Tracer* tracer = obs::Tracer::active()) {
    tracer->add_instant(tracer->track("io.faults"),
                        std::string(kind) + ":" + fault_op_name(op));
  }
}

// splitmix64 — tiny, high-quality mixer; (seed, op index) -> uniform u64.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* fault_op_name(FaultOp op) {
  switch (op) {
    case FaultOp::kRead:
      return "read";
    case FaultOp::kWrite:
      return "write";
    case FaultOp::kAlloc:
      return "alloc";
    case FaultOp::kAmSend:
      return "am";
    case FaultOp::kNodeKill:
      return "node";
  }
  return "?";
}

void FaultInjector::add_policy(const FaultPolicy& policy) {
  const std::scoped_lock lock(mutex_);
  policies_.push_back(PolicyState{policy, 0});
}

FaultInjector::Decision FaultInjector::evaluate(FaultOp op,
                                                const std::string& path,
                                                int node_a, int node_b) {
  Decision decision;
  const std::scoped_lock lock(mutex_);
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    PolicyState& state = policies_[i];
    const FaultPolicy& p = state.policy;
    if (p.op != op) continue;
    if (p.node >= 0 && p.node != node_a && p.node != node_b) continue;
    if (!p.path_match.empty() &&
        path.find(p.path_match) == std::string::npos) {
      continue;
    }
    const std::uint64_t index = ++state.ops;
    bool fire = p.nth != 0 && index == p.nth;
    if (!fire && p.rate > 0.0) {
      // Deterministic per-(seed, policy, op-index) coin flip.
      const std::uint64_t h =
          splitmix64(seed_ ^ (static_cast<std::uint64_t>(i) << 48) ^ index);
      const double u =
          static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform [0,1)
      fire = u < p.rate;
    }
    if (!fire) continue;
    decision.fired = true;
    if (p.delay_seconds > 0.0) {
      decision.delay_seconds =
          std::max(decision.delay_seconds, p.delay_seconds);
    }
    if (p.transient > 0) {
      decision.transient = std::max(decision.transient, p.transient);
    } else if (p.short_bytes > 0 && op == FaultOp::kWrite) {
      decision.short_bytes = decision.short_bytes == 0
                                 ? p.short_bytes
                                 : std::min(decision.short_bytes,
                                            p.short_bytes);
    } else if (p.delay_seconds <= 0.0) {
      decision.fatal = true;
    }
  }
  return decision;
}

void FaultInjector::absorb(FaultOp op, const Decision& decision,
                           const std::string& what) {
  injected_.fetch_add(1, std::memory_order_relaxed);
  fault_counters().injected.add(1);
  trace_fault(op, "fault");
  if (decision.fatal) {
    fatal_.fetch_add(1, std::memory_order_relaxed);
    fault_counters().fatal.add(1);
    trace_fault(op, "fatal");
    throw FaultError(op, /*transient=*/false,
                     "injected fatal " + std::string(fault_op_name(op)) +
                         " fault: " + what);
  }
  // Transient: fail `decision.transient` consecutive attempts, each retried
  // with a tiny exponential backoff, then succeed — unless the budget runs
  // out first.
  if (decision.transient > max_retries_) {
    fatal_.fetch_add(1, std::memory_order_relaxed);
    fault_counters().fatal.add(1);
    trace_fault(op, "fatal");
    throw FaultError(op, /*transient=*/true,
                     "transient " + std::string(fault_op_name(op)) +
                         " fault persisted past " +
                         std::to_string(max_retries_) +
                         " retries: " + what);
  }
  for (unsigned attempt = 0; attempt < decision.transient; ++attempt) {
    retried_.fetch_add(1, std::memory_order_relaxed);
    fault_counters().retried.add(1);
    const auto backoff =
        std::chrono::microseconds(1ULL << std::min(attempt, 6U));
    std::this_thread::sleep_for(backoff);
  }
}

void FaultInjector::on_read(const std::filesystem::path& path,
                            std::size_t bytes) {
  (void)bytes;
  const std::string p = path.string();
  const Decision decision =
      evaluate(FaultOp::kRead, p, t_current_node, -1);
  if (!decision.fired) return;
  absorb(FaultOp::kRead, decision, p);
}

std::size_t FaultInjector::on_write(const std::filesystem::path& path,
                                    std::size_t bytes) {
  const std::string p = path.string();
  const Decision decision =
      evaluate(FaultOp::kWrite, p, t_current_node, -1);
  if (!decision.fired) return bytes;
  if (decision.short_bytes > 0 && !decision.fatal &&
      decision.transient == 0) {
    // Short write: count it as injected+retried (the caller's remainder
    // loop is the retry) and truncate, leaving at least one byte so the
    // stream always makes progress.
    injected_.fetch_add(1, std::memory_order_relaxed);
    retried_.fetch_add(1, std::memory_order_relaxed);
    fault_counters().injected.add(1);
    fault_counters().retried.add(1);
    trace_fault(FaultOp::kWrite, "short");
    return std::max<std::size_t>(1, std::min(decision.short_bytes, bytes));
  }
  absorb(FaultOp::kWrite, decision, p);
  return bytes;
}

void FaultInjector::on_alloc(std::uint64_t bytes) {
  const std::string what = "device alloc of " + std::to_string(bytes) + " B";
  const Decision decision =
      evaluate(FaultOp::kAlloc, what, t_current_node, -1);
  if (!decision.fired) return;
  absorb(FaultOp::kAlloc, decision, what);
}

FaultInjector::AmFault FaultInjector::on_am(unsigned src, unsigned dst,
                                            const std::string& label) {
  AmFault out;
  const Decision decision = evaluate(FaultOp::kAmSend, label,
                                     static_cast<int>(src),
                                     static_cast<int>(dst));
  if (!decision.fired) return out;
  if (decision.fatal || decision.transient > max_retries_) {
    // Mirror absorb()'s fatal bookkeeping: a dead link is fatal for the
    // sending node.
    Decision fatal = decision;
    fatal.fatal = true;
    absorb(FaultOp::kAmSend, fatal, label);
  }
  injected_.fetch_add(1, std::memory_order_relaxed);
  fault_counters().injected.add(1);
  trace_fault(FaultOp::kAmSend,
              decision.transient > 0 ? "drop" : "delay");
  // Drops are absorbed by retransmission in the network layer — count the
  // retransmits as retries but never sleep; the cost is modeled, not real.
  if (decision.transient > 0) {
    retried_.fetch_add(decision.transient, std::memory_order_relaxed);
    fault_counters().retried.add(decision.transient);
  }
  out.drops = decision.transient;
  out.delay_seconds = decision.delay_seconds;
  return out;
}

void FaultInjector::on_node_op(unsigned node, const std::string& label) {
  Decision decision = evaluate(FaultOp::kNodeKill, label,
                               static_cast<int>(node), -1);
  if (!decision.fired) return;
  decision.fatal = true;  // a node kill has no transient form
  absorb(FaultOp::kNodeKill, decision, label);
}

namespace {

std::uint64_t parse_u64(const std::string& text, const std::string& where) {
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    throw std::invalid_argument("fault spec: bad number '" + text + "' in " +
                                where);
  }
}

}  // namespace

std::unique_ptr<FaultInjector> FaultInjector::parse(const std::string& spec) {
  // First pass collects seed/retries so policies see the final seed.
  std::uint64_t seed = 0;
  unsigned retries = 8;
  std::vector<FaultPolicy> policies;

  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t end = std::min(spec.find(';', pos), spec.size());
    const std::string clause = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;

    if (clause.rfind("seed=", 0) == 0) {
      seed = parse_u64(clause.substr(5), clause);
      continue;
    }
    if (clause.rfind("retries=", 0) == 0) {
      retries = static_cast<unsigned>(parse_u64(clause.substr(8), clause));
      continue;
    }

    const std::size_t colon = clause.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("fault spec: clause '" + clause +
                                  "' has no ':'");
    }
    FaultPolicy policy;
    const std::string op = clause.substr(0, colon);
    if (op == "read") {
      policy.op = FaultOp::kRead;
    } else if (op == "write") {
      policy.op = FaultOp::kWrite;
    } else if (op == "alloc") {
      policy.op = FaultOp::kAlloc;
    } else if (op == "am") {
      policy.op = FaultOp::kAmSend;
    } else if (op == "node") {
      policy.op = FaultOp::kNodeKill;
    } else {
      throw std::invalid_argument("fault spec: unknown op '" + op + "'");
    }

    std::size_t ppos = colon + 1;
    while (ppos <= clause.size()) {
      const std::size_t pend = std::min(clause.find(',', ppos), clause.size());
      const std::string param = clause.substr(ppos, pend - ppos);
      ppos = pend + 1;
      if (param.empty()) continue;
      if (param.rfind("nth=", 0) == 0) {
        policy.nth = parse_u64(param.substr(4), clause);
      } else if (param.rfind("rate=", 0) == 0) {
        try {
          policy.rate = std::stod(param.substr(5));
        } catch (const std::exception&) {
          throw std::invalid_argument("fault spec: bad rate in '" + clause +
                                      "'");
        }
      } else if (param.rfind("transient=", 0) == 0) {
        policy.transient =
            static_cast<unsigned>(parse_u64(param.substr(10), clause));
      } else if (param.rfind("short=", 0) == 0) {
        policy.short_bytes =
            static_cast<std::size_t>(parse_u64(param.substr(6), clause));
      } else if (param.rfind("match=", 0) == 0) {
        policy.path_match = param.substr(6);
      } else if (param.rfind("node=", 0) == 0) {
        policy.node =
            static_cast<int>(parse_u64(param.substr(5), clause));
      } else if (param.rfind("delay=", 0) == 0) {
        try {
          policy.delay_seconds = std::stod(param.substr(6));
        } catch (const std::exception&) {
          throw std::invalid_argument("fault spec: bad delay in '" + clause +
                                      "'");
        }
      } else {
        throw std::invalid_argument("fault spec: unknown param '" + param +
                                    "'");
      }
    }
    if (policy.nth == 0 && policy.rate <= 0.0) {
      throw std::invalid_argument("fault spec: clause '" + clause +
                                  "' has no trigger (nth= or rate=)");
    }
    policies.push_back(policy);
  }

  auto injector = std::make_unique<FaultInjector>(seed);
  injector->set_max_retries(retries);
  for (const FaultPolicy& p : policies) injector->add_policy(p);
  return injector;
}

namespace {

// Parses LASAGNA_FAULT_SPEC at static-init time and installs a process-wide
// injector, so any binary (tests under a CI shard, the example CLI) can be
// run under ambient fault injection without code changes.
struct EnvInstaller {
  std::unique_ptr<FaultInjector> injector;
  EnvInstaller() {
    const char* spec = std::getenv("LASAGNA_FAULT_SPEC");
    if (spec == nullptr || spec[0] == '\0') return;
    injector = FaultInjector::parse(spec);
    FaultInjector::install(injector.get());
  }
  ~EnvInstaller() {
    if (injector != nullptr &&
        FaultInjector::active() == injector.get()) {
      FaultInjector::install(nullptr);
    }
  }
};

const EnvInstaller g_env_installer;

}  // namespace

}  // namespace lasagna::io
