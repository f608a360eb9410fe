#include "dist/active_message.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "io/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace lasagna::dist {

namespace {

struct AmCounters {
  obs::Counter& requests;
  obs::Counter& bytes;
  obs::Counter& drops;
  obs::Counter& delays;
  obs::Histogram& latency_ps;  ///< request + reply leg, picoseconds
};

AmCounters& am_counters() {
  auto& r = obs::MetricsRegistry::global();
  static AmCounters counters{r.counter("dist.am.requests"),
                             r.counter("dist.am.bytes"),
                             r.counter("dist.am.drops"),
                             r.counter("dist.am.delays"),
                             r.histogram("dist.am.latency_ps")};
  return counters;
}

}  // namespace

Network::Network(unsigned node_count, const ClusterTopology& topology)
    : topology_(topology) {
  if (node_count == 0) throw std::invalid_argument("Network: zero nodes");
  nodes_.reserve(node_count);
  for (unsigned i = 0; i < node_count; ++i) {
    nodes_.push_back(std::make_unique<NodeState>());
  }
}

void Network::register_handler(unsigned node, std::uint16_t type,
                               Handler handler) {
  NodeState& state = *nodes_.at(node);
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.handlers.size() <= type) state.handlers.resize(type + 1);
  state.handlers[type] = std::move(handler);
}

Payload Network::request(unsigned src, unsigned dst, std::uint16_t type,
                         std::span<const std::byte> payload) {
  NodeState& target = *nodes_.at(dst);
  NodeState& source = *nodes_.at(src);

  // Consult the fault injector before touching the wire; fatal AM faults
  // throw from the sender, before the handler runs.
  io::FaultInjector::AmFault fault;
  if (src != dst) {
    if (io::FaultInjector* injector = io::FaultInjector::active()) {
      fault = injector->on_am(src, dst, "am:" + std::to_string(type));
    }
  }

  Payload reply;
  {
    std::lock_guard<std::mutex> lock(target.mutex);
    if (type >= target.handlers.size() || !target.handlers[type]) {
      throw std::logic_error("no handler registered for AM type " +
                             std::to_string(type));
    }
    if (recording_.load(std::memory_order_relaxed)) {
      target.log.push_back(Delivery{src, type, payload.size()});
    }
    reply = target.handlers[type](src, payload);
  }

  if (src != dst) {
    am_counters().requests.add(1);
    am_counters().bytes.add(payload.size() + reply.size());
    source.bytes_sent.fetch_add(payload.size(), std::memory_order_relaxed);
    target.bytes_sent.fetch_add(reply.size(), std::memory_order_relaxed);
    const LegCharge req = charge_leg(src, dst, payload.size());
    const LegCharge rep = charge_leg(dst, src, reply.size());
    am_counters().latency_ps.record(req.cost_ps + rep.cost_ps);
    if (obs::Profiler* prof = obs::Profiler::active()) {
      // The request leg becomes a cross-node edge of the causal graph:
      // a send span on src's send engine, a receive span on dst's receive
      // engine, connected with the current hint kind (am, or the
      // gather/broadcast reclassification from the caller's EdgeHint).
      const std::uint64_t send_span = prof->engine_span(
          static_cast<int>(src), "network", "am-send", req.send_start_ps,
          req.cost_ps);
      const std::uint64_t recv_span = prof->engine_span(
          static_cast<int>(dst), "network", "am-recv", req.recv_start_ps,
          req.cost_ps);
      prof->edge(send_span, recv_span, obs::Profiler::current_edge_kind());
    }
    // Each injected drop retransmits the request: one more request-sized
    // leg charged to the same engines. Injected link delay stalls both
    // directions at both endpoints.
    for (unsigned i = 0; i < fault.drops; ++i) {
      am_counters().drops.add(1);
      charge_leg(src, dst, payload.size());
    }
    if (fault.delay_seconds > 0.0) {
      am_counters().delays.add(1);
      charge_ps(source.send_picoseconds, fault.delay_seconds);
      charge_ps(source.recv_picoseconds, fault.delay_seconds);
      charge_ps(target.send_picoseconds, fault.delay_seconds);
      charge_ps(target.recv_picoseconds, fault.delay_seconds);
    }
  }
  return reply;
}

Network::LegCharge Network::charge_leg(unsigned src, unsigned dst,
                                       std::uint64_t bytes) {
  const double bw = topology_.effective_bandwidth(src, dst);
  double seconds = topology_.effective_latency(src, dst);
  if (std::isfinite(bw) && bw > 0.0) {
    seconds += static_cast<double>(bytes) / bw;
  }
  LegCharge leg;
  leg.send_start_ps = static_cast<std::int64_t>(
      charge_ps(nodes_.at(src)->send_picoseconds, seconds));
  leg.recv_start_ps = static_cast<std::int64_t>(
      charge_ps(nodes_.at(dst)->recv_picoseconds, seconds));
  leg.cost_ps = static_cast<std::int64_t>(std::llround(seconds * 1e12));
  return leg;
}

std::uint64_t Network::charge_ps(std::atomic<std::uint64_t>& clock,
                                 double seconds) {
  return clock.fetch_add(
      static_cast<std::uint64_t>(std::llround(seconds * 1e12)),
      std::memory_order_relaxed);
}

double Network::modeled_seconds(unsigned node) const {
  return std::max(send_seconds(node), recv_seconds(node));
}

double Network::send_seconds(unsigned node) const {
  return static_cast<double>(
             nodes_.at(node)->send_picoseconds.load()) *
         1e-12;
}

double Network::recv_seconds(unsigned node) const {
  return static_cast<double>(
             nodes_.at(node)->recv_picoseconds.load()) *
         1e-12;
}

std::uint64_t Network::bytes_sent(unsigned node) const {
  return nodes_.at(node)->bytes_sent.load();
}

void Network::reset_counters() {
  for (auto& node : nodes_) {
    node->bytes_sent.store(0);
    node->send_picoseconds.store(0);
    node->recv_picoseconds.store(0);
  }
}

void Network::record_deliveries(bool enabled) {
  for (auto& node : nodes_) {
    std::lock_guard<std::mutex> lock(node->mutex);
    node->log.clear();
  }
  recording_.store(enabled, std::memory_order_relaxed);
}

std::vector<Network::Delivery> Network::deliveries(unsigned node) const {
  NodeState& state = *nodes_.at(node);
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.log;
}

}  // namespace lasagna::dist
