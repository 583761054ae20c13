#include "net/clos_fabric.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "net/port.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"

namespace nm::net {
namespace {

// SplitMix64 finalizer over a fixed state — a stateless 64-bit mixer.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(s);
}

}  // namespace

ClosFabric::ClosFabric(sim::FluidScheduler& scheduler, std::string name, ClosConfig config)
    : name_(std::move(name)), config_(config) {
  NM_CHECK(config_.leaves >= 1 && config_.spines >= 1 && config_.hosts_per_leaf >= 1,
           name_ << ": leaf-spine shape needs leaves/spines/hosts_per_leaf >= 1");
  NM_CHECK(config_.oversubscription > 0.0, name_ << ": oversubscription must be > 0");
  host_rate_ = config_.host_rate.bytes_per_second();
  NM_CHECK(host_rate_ > 0.0, name_ << ": host_rate must be > 0");
  uplink_rate_ =
      config_.hosts_per_leaf * host_rate_ / (config_.spines * config_.oversubscription);

  Rng ecmp = Rng::stream(config_.seed, "clos/" + name_ + "/ecmp");
  salt_ = ecmp.next_u64();

  // Leaf-major, spine-minor: uplink_index mirrors this layout.
  for (int leaf = 0; leaf < config_.leaves; ++leaf) {
    for (int up = 0; up < config_.spines; ++up) {
      links_.emplace_back(scheduler,
                          name_ + ":l" + std::to_string(leaf) + "-u" + std::to_string(up),
                          uplink_rate_);
    }
  }
  NM_LOG_DEBUG("net") << name_ << ": leaf-spine with " << config_.leaves << " leaves, "
                      << config_.spines << " spines, " << links_.size()
                      << " links, oversubscription " << oversubscription();
}

double ClosFabric::oversubscription() const {
  return config_.hosts_per_leaf * host_rate_ / (config_.spines * uplink_rate_);
}

double ClosFabric::bisection_bandwidth() const {
  return static_cast<double>(config_.leaves) * config_.spines * uplink_rate_ / 2.0;
}

std::size_t ClosFabric::uplink_index(int leaf, int up) const {
  NM_CHECK(leaf >= 0 && leaf < config_.leaves && up >= 0 && up < config_.spines,
           name_ << ": uplink (" << leaf << ", " << up << ") out of range");
  return static_cast<std::size_t>(leaf) * config_.spines + up;
}

const std::string& ClosFabric::link_name(std::size_t link) const { return links_.at(link).name; }
double ClosFabric::link_rate(std::size_t link) const { return links_.at(link).rate; }
double ClosFabric::link_factor(std::size_t link) const { return links_.at(link).factor; }
sim::FluidResource& ClosFabric::link_up(std::size_t link) { return links_.at(link).up; }
sim::FluidResource& ClosFabric::link_down(std::size_t link) { return links_.at(link).down; }
bool ClosFabric::has_dead_link() const { return dead_links_ > 0; }

void ClosFabric::set_link_factor(std::size_t link, double factor) {
  NM_CHECK(factor >= 0.0, name_ << ": negative link factor");
  Link& l = links_.at(link);
  if (l.factor == 0.0 && factor > 0.0) {
    --dead_links_;
  } else if (l.factor > 0.0 && factor == 0.0) {
    ++dead_links_;
  }
  l.factor = factor;
  l.up.set_capacity(l.rate * factor);
  l.down.set_capacity(l.rate * factor);
  NM_LOG_DEBUG("net") << name_ << ": link " << l.name << " factor -> " << factor;
}

void ClosFabric::assign_port(const NicPort& port, int leaf) {
  NM_CHECK(leaf >= 0 && leaf < config_.leaves,
           name_ << ": cannot assign " << port.name() << " to leaf " << leaf);
  leaf_by_port_[&port] = leaf;
}

int ClosFabric::leaf_of(const NicPort& port) const {
  auto it = leaf_by_port_.find(&port);
  return it == leaf_by_port_.end() ? kSpineAttach : it->second;
}

std::vector<ClosFabric::Candidate> ClosFabric::candidates(int src_leaf, int dst_leaf) const {
  std::vector<Candidate> out;
  if (src_leaf == dst_leaf || (src_leaf == kSpineAttach && dst_leaf == kSpineAttach)) {
    return out;
  }
  auto alive = [this](std::size_t link) { return links_[link].factor > 0.0; };
  out.reserve(static_cast<std::size_t>(config_.spines));
  for (int s = 0; s < config_.spines; ++s) {
    Candidate c;
    bool ok = true;
    if (src_leaf != kSpineAttach) {
      const std::size_t l = uplink_index(src_leaf, s);
      c.hops.push_back({l, true});
      ok = ok && alive(l);
    }
    if (dst_leaf != kSpineAttach) {
      const std::size_t l = uplink_index(dst_leaf, s);
      c.hops.push_back({l, false});
      ok = ok && alive(l);
    }
    c.alive = ok;
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<ClosHop> ClosFabric::pick(int src_leaf, int dst_leaf, std::uint64_t key) const {
  std::vector<Candidate> cands = candidates(src_leaf, dst_leaf);
  if (cands.empty()) {
    return {};
  }
  std::vector<std::size_t> alive;
  alive.reserve(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (cands[i].alive) {
      alive.push_back(i);
    }
  }
  // No alive candidate: keep the nominal pick — the flow freezes on the
  // dead link (capacity 0) and resumes when it heals.
  if (alive.empty()) {
    return std::move(cands[key % cands.size()].hops);
  }
  return std::move(cands[alive[key % alive.size()]].hops);
}

std::vector<ClosHop> ClosFabric::pick_path(int src_leaf, int dst_leaf) {
  const std::uint64_t key =
      mix(salt_ ^ mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_leaf)) << 32) |
                      static_cast<std::uint32_t>(dst_leaf)) ^
          seq_++);
  return pick(src_leaf, dst_leaf, key);
}

std::vector<ClosHop> ClosFabric::path_for_key(int src_leaf, int dst_leaf,
                                              std::uint64_t key) const {
  return pick(src_leaf, dst_leaf, key);
}

void ClosFabric::append_shares(const std::vector<ClosHop>& path,
                               std::vector<sim::ResourceShare>& shares) {
  for (const ClosHop& hop : path) {
    shares.push_back({hop.up ? &links_[hop.link].up : &links_[hop.link].down, 1.0});
  }
}

double ClosFabric::path_rate(int src_leaf, int dst_leaf) const {
  const std::vector<Candidate> cands = candidates(src_leaf, dst_leaf);
  if (cands.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  double best = 0.0;
  for (const Candidate& c : cands) {
    if (!c.alive) {
      continue;
    }
    double rate = std::numeric_limits<double>::infinity();
    for (const ClosHop& hop : c.hops) {
      const Link& l = links_[hop.link];
      rate = std::min(rate, l.rate * l.factor);
    }
    best = std::max(best, rate);
  }
  return best;
}

double ClosFabric::leaf_capacity(int leaf, bool nominal) const {
  NM_CHECK(leaf >= 0 && leaf < config_.leaves, name_ << ": leaf " << leaf << " out of range");
  double sum = 0.0;
  for (int up = 0; up < config_.spines; ++up) {
    const Link& l = links_[uplink_index(leaf, up)];
    sum += nominal ? l.rate : l.rate * l.factor;
  }
  return sum;
}

}  // namespace nm::net
