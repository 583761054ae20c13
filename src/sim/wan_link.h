// A calibrated inter-datacenter link: one boundary resource per side, in
// two different FluidNet domains, whose published ghost caps follow a
// latency/bandwidth/loss model instead of the plain fair-share offer.
//
// The link is a shared medium: a cross-site flow routed over both endpoints
// always has exactly one endpoint foreign to its home domain, so the
// FluidNet exchange consults the link's CapPolicy for every such flow —
// regardless of direction — and folds
//
//     min(fair_offer, effective_rate() / weight)
//
// into the flow's boundary cap. `effective_rate()` is the line rate scaled
// by the current congestion factor, ceilinged by the Mathis TCP throughput
// model when the link has both RTT and loss:
//
//     mathis = MSS / RTT * sqrt(3/2) / sqrt(loss)        [bytes/s]
//
// (Mathis, Semke, Mahdavi, Ott: "The Macroscopic Behavior of the TCP
// Congestion Avoidance Algorithm", CCR 1997.) With zero loss or zero RTT
// the ceiling is +inf and the link degrades to a plain fair-share
// boundary pair — the golden-reference equivalence tests depend on that.
//
// A WanLinkConfig::schedule describes time-varying congestion: each phase
// is posted as a simulation event at construction, and applying a phase
// republishes both endpoint capacities through set_capacity(), which marks
// the crossing components dirty so the settle's exchange re-folds every
// boundary cap against the new factor/RTT before any simulated time
// passes. Phases fire at fixed (time, sequence) slots in the event queue,
// so the timeline stays deterministic (DESIGN.md §7).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/fluid.h"
#include "sim/simulation.h"
#include "util/units.h"

namespace nm::sim {

/// One step of a WAN link's congestion schedule.
struct WanLinkPhase {
  /// When the phase takes effect, relative to WanLink construction.
  Duration at = Duration::zero();
  /// Fraction of the line rate available from this phase on. 0 partitions
  /// the link (all crossing flows freeze at rate 0 until a later phase
  /// heals it).
  double capacity_factor = 1.0;
  /// RTT in effect from this phase on; zero keeps the previous RTT.
  Duration rtt = Duration::zero();
};

struct WanLinkConfig {
  Bandwidth line_rate = Bandwidth::gbps(1);
  /// Round-trip time. Feeds the Mathis ceiling and the one-way latency a
  /// fabric adds to cross-site transfers; zero disables the ceiling.
  Duration rtt = Duration::zero();
  /// Packet-loss probability in [0, 1); zero disables the Mathis ceiling.
  double loss = 0.0;
  /// Effective segment size for the Mathis ceiling, bytes. Bulk senders on
  /// calibrated WAN paths run segmentation offload, so the loss-recovery
  /// unit is a ~64 KiB burst, not one 1460-byte wire MSS; calibrate this
  /// (together with `loss`) against a measured path.
  double mss_bytes = 65536.0;
  /// Time-varying congestion, ascending by `at`.
  std::vector<WanLinkPhase> schedule;
};

class WanLink final : public CapPolicy {
 public:
  /// Registers one endpoint resource in each scheduler (they must belong to
  /// different FluidNet domains) and attaches itself as both endpoints'
  /// CapPolicy. Schedule phases are posted on `sim` immediately.
  WanLink(Simulation& sim, FluidScheduler& side_a, FluidScheduler& side_b, std::string name,
          WanLinkConfig config = {});
  ~WanLink() override;
  WanLink(const WanLink&) = delete;
  WanLink& operator=(const WanLink&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const WanLinkConfig& config() const { return config_; }
  /// The two boundary resources. Cross-site flows take a share on each
  /// (wire-rate units, weight 1 for plain byte streams).
  [[nodiscard]] FluidResource& a() { return a_; }
  [[nodiscard]] FluidResource& b() { return b_; }

  /// Congestion state as of the most recently applied schedule phase.
  [[nodiscard]] double current_factor() const { return factor_; }
  [[nodiscard]] Duration current_rtt() const { return rtt_; }
  /// Propagation delay a one-way crossing adds (RTT / 2).
  [[nodiscard]] Duration one_way_latency() const { return rtt_ / 2.0; }

  /// Mathis TCP throughput ceiling for the current RTT/loss, bytes/s
  /// (+inf when either is zero).
  [[nodiscard]] double mathis_rate() const;
  /// What the link can actually carry now: line rate × congestion factor,
  /// min the Mathis ceiling. This is the rate migration estimators should
  /// plan with (Fabric::path_rate reads it).
  [[nodiscard]] double effective_rate() const;
  /// The rate the link would carry at congestion factor 1 (line rate min
  /// Mathis at the current RTT). Planners snapshot this as the edge's
  /// nominal capacity; drivers read effective_rate() live at grant time.
  [[nodiscard]] double nominal_rate() const;
  /// True when the current factor partitions the link.
  [[nodiscard]] bool partitioned() const { return factor_ <= 0.0; }

  /// Applies a congestion change immediately — same semantics as a
  /// schedule phase firing now (failure injectors partition with factor 0
  /// and later heal with factor 1; `rtt` zero keeps the current RTT).
  /// Call from task context only: determinism needs the injection to sit
  /// at a fixed (time, sequence) event-queue slot.
  void inject_phase(double capacity_factor, Duration rtt = Duration::zero());

  // CapPolicy: fold the model into the fair-share offer the endpoint would
  // publish. Called from the serial exchange phase only.
  [[nodiscard]] double offer(const FluidResource& res, double weight, double fair_offer,
                             TimePoint now) override;

 private:
  void apply_phase(std::size_t index);
  void apply(double capacity_factor, Duration rtt);

  Simulation* sim_;
  std::string name_;
  WanLinkConfig config_;
  double factor_ = 1.0;
  Duration rtt_;
  /// Keeps posted schedule callbacks from touching a destroyed link: each
  /// holds a weak_ptr to this flag and does nothing once it has expired.
  /// Plain posts plus the flag spare the link a ticket per phase, and its
  /// destructor never touches the event queue.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  FluidResource a_;
  FluidResource b_;
};

}  // namespace nm::sim
