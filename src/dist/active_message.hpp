// GASNet-style active-message layer for the in-process cluster simulation
// (paper section III-E: "GASNet active messaging library handles the remote
// spawning of processes and subsequent communications").
//
// A message carries a type tag and a byte payload; delivering it runs the
// handler registered by the destination node and returns the handler's
// reply to the sender (request/reply AM semantics). Every transfer charges
// per-node modeled network clocks through a ClusterTopology link model:
// the request leg bills the sender's send engine and the receiver's
// receive engine (latency + bytes / effective link bandwidth), the reply
// leg bills the reverse pair, and a node's modeled network time is the max
// of its two full-duplex engines. Many senders targeting one receiver
// stack up on that receiver's receive clock — incast contention.
//
// Fault injection: when an io::FaultInjector is installed, every remote
// send consults it first. Injected drops are absorbed as modeled
// retransmissions (the request payload is re-charged to both endpoints per
// drop — delivery order is unchanged, only the clocks move); injected link
// delay is charged to both endpoints; fatal AM faults throw io::FaultError
// from the sender. Because faults only perturb modeled clocks, a seeded
// schedule leaves delivery content and order bit-identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "dist/topology.hpp"

namespace lasagna::dist {

using Payload = std::vector<std::byte>;

class Network {
 public:
  /// Per-link bandwidth, latency and rack structure come from `topology`
  /// (`ClusterTopology::flat` for a uniform network).
  Network(unsigned node_count, const ClusterTopology& topology);

  [[nodiscard]] const ClusterTopology& topology() const { return topology_; }

  using Handler =
      std::function<Payload(unsigned src_node, std::span<const std::byte>)>;

  [[nodiscard]] unsigned node_count() const {
    return static_cast<unsigned>(nodes_.size());
  }

  /// Register the handler for message type `type` at `node`. Must happen
  /// before any request of that type arrives.
  void register_handler(unsigned node, std::uint16_t type, Handler handler);

  /// Send an active message from `src` to `dst` and return the reply.
  /// Handlers at one node run serialized (per-node mutex), mirroring the
  /// single AM-polling thread per process. Local sends (src == dst) skip
  /// the network charge.
  Payload request(unsigned src, unsigned dst, std::uint16_t type,
                  std::span<const std::byte> payload);

  /// Modeled network-lane seconds at `node`: max of its send and receive
  /// engine clocks (full-duplex NIC — the engines run concurrently).
  [[nodiscard]] double modeled_seconds(unsigned node) const;

  /// Seconds accumulated on one engine at `node` (diagnostics; the send
  /// engine shows push pressure, the receive engine shows incast).
  [[nodiscard]] double send_seconds(unsigned node) const;
  [[nodiscard]] double recv_seconds(unsigned node) const;

  /// Payload bytes sent from `node` (requests) plus replies it produced.
  [[nodiscard]] std::uint64_t bytes_sent(unsigned node) const;

  /// Reset per-node clocks/counters (phase boundaries).
  void reset_counters();

  // -- delivery log (property tests) ----------------------------------------

  /// One handler invocation observed at a destination node.
  struct Delivery {
    unsigned src = 0;
    std::uint16_t type = 0;
    std::uint64_t bytes = 0;  ///< request payload size
  };

  /// Toggle per-node delivery recording; enabling clears existing logs.
  /// Off by default (zero overhead beyond the branch).
  void record_deliveries(bool enabled);

  /// Deliveries observed at `node`, in handler execution order. The
  /// per-node mutex makes this order the definitive serialization the
  /// determinism property tests pin down.
  [[nodiscard]] std::vector<Delivery> deliveries(unsigned node) const;

 private:
  struct NodeState {
    mutable std::mutex mutex;
    std::vector<Handler> handlers;
    std::vector<Delivery> log;  ///< guarded by mutex
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> send_picoseconds{0};
    std::atomic<std::uint64_t> recv_picoseconds{0};
  };

  /// What one directed leg cost and where each engine's clock stood before
  /// the charge — the profiler stamps its send/receive spans from these.
  struct LegCharge {
    std::int64_t cost_ps = 0;
    std::int64_t send_start_ps = 0;  ///< src send engine, before charging
    std::int64_t recv_start_ps = 0;  ///< dst recv engine, before charging
  };

  /// Charge one directed transfer leg: `src`'s send engine and `dst`'s
  /// receive engine each pay latency + bytes / effective bandwidth.
  LegCharge charge_leg(unsigned src, unsigned dst, std::uint64_t bytes);
  static std::uint64_t charge_ps(std::atomic<std::uint64_t>& clock,
                                 double seconds);

  ClusterTopology topology_;
  std::atomic<bool> recording_{false};
  std::vector<std::unique_ptr<NodeState>> nodes_;
};

// -- payload helpers ---------------------------------------------------------

/// Append a trivially copyable value to a payload.
template <typename T>
void put(Payload& payload, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* bytes = reinterpret_cast<const std::byte*>(&value);
  payload.insert(payload.end(), bytes, bytes + sizeof(T));
}

/// Read a trivially copyable value at `offset`, advancing it.
template <typename T>
T get(std::span<const std::byte> payload, std::size_t& offset) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (offset + sizeof(T) > payload.size()) {
    throw std::out_of_range("active message payload underflow");
  }
  T value;
  std::memcpy(&value, payload.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

}  // namespace lasagna::dist
