// Cluster network topology for the distributed network lane.
//
// PR 5's network model was a single scalar clock per node: every transfer
// charged latency + bytes/bandwidth to one accumulator, so a node sending
// while it received was modeled as busy for the *sum* — and every link in
// the cluster was identical. This header replaces that with a small
// link-level model, still fully deterministic:
//
//   * per-direction NIC clocks — a node's send and receive engines run
//     concurrently (full-duplex), so its network-lane time is the max of
//     the two, not the sum;
//   * a per-link bandwidth and latency by link class, intra-rack or
//     inter-rack (fat-tree style: the oversubscribed core gives inter-rack
//     links less bandwidth and more latency);
//   * incast contention for free — N senders pushing to one owner each
//     charge the owner's receive clock, which serializes them exactly the
//     way an incast bottlenecks a real reduction.
//
// Zero means "unconstrained" for the link bandwidth and "inherit the
// base value" for the inter-rack overrides, so a default ClusterTopology
// is a flat, infinitely-provisioned network.
#pragma once

#include <limits>

namespace lasagna::dist {

struct ClusterTopology {
  /// Intra-rack (leaf switch) link bandwidth, bytes/second (0 = uncapped).
  double link_bandwidth_bytes_per_sec = 0.0;
  /// Inter-rack (core) link bandwidth (0 = same as intra-rack).
  double inter_rack_bandwidth_bytes_per_sec = 0.0;
  /// One-way latency between nodes in the same rack, seconds.
  double latency_seconds = 0.0;
  /// One-way latency across racks (0 = same as intra-rack).
  double inter_rack_latency_seconds = 0.0;
  /// Nodes per rack; 0 = flat topology (everything is one rack).
  unsigned rack_size = 0;

  /// A flat, uniform network: one bandwidth and latency for every link.
  static ClusterTopology flat(double bandwidth_bytes_per_sec,
                              double latency_seconds) {
    ClusterTopology t;
    t.link_bandwidth_bytes_per_sec = bandwidth_bytes_per_sec;
    t.latency_seconds = latency_seconds;
    return t;
  }

  /// The paper clusters' network (SuperMIC, §III-E): 56 Gb/s InfiniBand
  /// at 5 µs within a 16-node leaf switch, 2:1 oversubscribed uplinks and
  /// an extra switch hop between racks. Bandwidths are divided by the
  /// dataset `scale` like the machine's disk and host rates, so modeled
  /// seconds stay in full-size-world units.
  static ClusterTopology fat_tree(double scale) {
    ClusterTopology t = flat(7e9 / scale, 5e-6);
    t.rack_size = 16;
    t.inter_rack_bandwidth_bytes_per_sec = 3.5e9 / scale;
    t.inter_rack_latency_seconds = 1e-5;
    return t;
  }

  [[nodiscard]] bool same_rack(unsigned a, unsigned b) const {
    return rack_size == 0 || a / rack_size == b / rack_size;
  }

  /// Bandwidth one transfer between `src` and `dst` can sustain: its link
  /// class's, or +inf when that class is unconstrained.
  [[nodiscard]] double effective_bandwidth(unsigned src, unsigned dst) const {
    const double link = same_rack(src, dst) ||
                                inter_rack_bandwidth_bytes_per_sec <= 0.0
                            ? link_bandwidth_bytes_per_sec
                            : inter_rack_bandwidth_bytes_per_sec;
    return link > 0.0 ? link : std::numeric_limits<double>::infinity();
  }

  /// One-way latency of the `src`->`dst` path.
  [[nodiscard]] double effective_latency(unsigned src, unsigned dst) const {
    if (same_rack(src, dst) || inter_rack_latency_seconds <= 0.0) {
      return latency_seconds;
    }
    return inter_rack_latency_seconds;
  }
};

}  // namespace lasagna::dist
