// ClosFabric: a parameterized 2-tier leaf-spine topology for one site's
// internal network. The flat seed enclosure models every port on one
// non-blocking switch; a ClosFabric adds the leaf uplinks as
// FluidResources, so intra-site oversubscription and destination-leaf
// incast constrain flows exactly like any other fluid resource.
//
// Shape (ClosConfig): `leaves` x `spines` full bipartite, each leaf one
// rack of `hosts_per_leaf` ports. The uplink rate derives from the
// configured oversubscription ratio:
// uplink = hosts_per_leaf*host_rate/(spines*oversub).
//
// Path selection is ECMP-style but deterministic: a salt drawn once from
// a named util::Rng stream is hashed with the (src leaf, dst leaf) pair
// and a per-fabric flow sequence number. Flows start in task context, so
// under the one-event-queue rule the sequence — and therefore every pick
// — is reproducible bit for bit. Dead links (factor 0) are filtered from
// the candidate set; when no candidate survives the nominal pick is kept
// and the flow freezes on the dead resource until heal, matching
// sim::WanLink partition semantics.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sim/fluid.h"
#include "util/units.h"

namespace nm::net {

class NicPort;

struct ClosConfig {
  /// Leaf-spine shape.
  int leaves = 0;
  int spines = 1;
  int hosts_per_leaf = 4;
  /// Host access-link rate (the NIC line rate of the attached ports).
  Bandwidth host_rate = Bandwidth::gbps(10);
  /// Leaf-tier oversubscription ratio: total host bandwidth under a leaf
  /// over total uplink bandwidth out of it. 1.0 = non-blocking.
  double oversubscription = 1.0;
  /// Seed for the ECMP salt stream (named "clos/<name>/ecmp").
  std::uint64_t seed = 1;

  [[nodiscard]] bool enabled() const { return leaves > 0; }
};

/// One directed inter-switch traversal: `link` is a physical link index
/// (see uplink_index), `up` true when crossed toward the spine tier.
struct ClosHop {
  std::size_t link = 0;
  bool up = true;
};

class ClosFabric {
 public:
  /// A port not assigned to any leaf (a WAN gateway uplink) attaches at
  /// the spine tier: paths to/from it cross only the mapped side's
  /// up/down segment.
  static constexpr int kSpineAttach = -1;

  ClosFabric(sim::FluidScheduler& scheduler, std::string name, ClosConfig config);
  ClosFabric(const ClosFabric&) = delete;
  ClosFabric& operator=(const ClosFabric&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  // --- Shape (closed forms pinned by clos_fabric_test) ---
  [[nodiscard]] int leaf_count() const { return config_.leaves; }
  /// Physical inter-switch links (each carries one resource per direction).
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] int hosts_per_leaf() const { return config_.hosts_per_leaf; }
  [[nodiscard]] int host_ports() const { return config_.leaves * config_.hosts_per_leaf; }
  [[nodiscard]] int uplinks_per_leaf() const { return config_.spines; }
  [[nodiscard]] double host_rate() const { return host_rate_; }
  [[nodiscard]] double uplink_rate() const { return uplink_rate_; }
  /// Realized leaf-tier oversubscription ratio.
  [[nodiscard]] double oversubscription() const;
  /// Half the aggregate leaf-spine link bandwidth, bytes/s: the classic
  /// worst-case bisection. host_ports()*host_rate()/2 over this equals
  /// oversubscription().
  [[nodiscard]] double bisection_bandwidth() const;

  // --- Link table ---
  /// `up`-th uplink of `leaf` (toward spine `up`).
  [[nodiscard]] std::size_t uplink_index(int leaf, int up) const;
  [[nodiscard]] const std::string& link_name(std::size_t link) const;
  [[nodiscard]] double link_rate(std::size_t link) const;
  [[nodiscard]] double link_factor(std::size_t link) const;
  /// Scales both directions of a link: 1 healthy, 0 dead (flows crossing
  /// it freeze in place, like a partitioned WanLink). Takes effect before
  /// any simulated time passes.
  void set_link_factor(std::size_t link, double factor);
  [[nodiscard]] bool has_dead_link() const;
  [[nodiscard]] sim::FluidResource& link_up(std::size_t link);
  [[nodiscard]] sim::FluidResource& link_down(std::size_t link);

  // --- Port ↔ leaf mapping ---
  void assign_port(const NicPort& port, int leaf);
  /// kSpineAttach when the port was never assigned.
  [[nodiscard]] int leaf_of(const NicPort& port) const;

  // --- Path selection ---
  /// Deterministic ECMP pick for the next flow src_leaf → dst_leaf
  /// (either may be kSpineAttach); advances the fabric's flow sequence.
  /// Empty when both endpoints sit under the same leaf (or at the spines).
  [[nodiscard]] std::vector<ClosHop> pick_path(int src_leaf, int dst_leaf);
  /// The pick a given hash key yields, without consuming the sequence.
  [[nodiscard]] std::vector<ClosHop> path_for_key(int src_leaf, int dst_leaf,
                                                  std::uint64_t key) const;
  /// Appends one full-weight share per crossed direction to `shares`.
  void append_shares(const std::vector<ClosHop>& path, std::vector<sim::ResourceShare>& shares);
  /// Planning rate of the best *alive* path, bytes/s (0 when every
  /// candidate crosses a dead link). Fabric::path_rate folds this in so
  /// migration estimators see the intra-site bottleneck.
  [[nodiscard]] double path_rate(int src_leaf, int dst_leaf) const;

  // --- Planner view ---
  /// Aggregate uplink capacity out of (equally: down into) `leaf`:
  /// nominal sums every uplink's rate, live only the alive fraction.
  [[nodiscard]] double leaf_capacity(int leaf, bool nominal) const;

 private:
  struct Link {
    Link(sim::FluidScheduler& scheduler, const std::string& link_name, double link_rate)
        : up(scheduler, link_name + ":up", link_rate),
          down(scheduler, link_name + ":down", link_rate),
          rate(link_rate),
          name(link_name) {}
    sim::FluidResource up;
    sim::FluidResource down;
    double rate;
    double factor = 1.0;
    std::string name;
  };
  struct Candidate {
    std::vector<ClosHop> hops;
    bool alive = true;
  };
  /// Every equal-cost candidate path for the pair, in canonical order.
  [[nodiscard]] std::vector<Candidate> candidates(int src_leaf, int dst_leaf) const;
  [[nodiscard]] std::vector<ClosHop> pick(int src_leaf, int dst_leaf, std::uint64_t key) const;

  std::string name_;
  ClosConfig config_;
  double host_rate_ = 0.0;
  double uplink_rate_ = 0.0;
  std::uint64_t salt_ = 0;
  std::uint64_t seq_ = 0;
  std::deque<Link> links_;
  std::map<const NicPort*, int> leaf_by_port_;
  std::size_t dead_links_ = 0;
};

}  // namespace nm::net
