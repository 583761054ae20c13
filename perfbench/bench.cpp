// End-to-end + per-layer benchmark of the simulator's host cost.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One operation runs one full scenario (build, boot, settle, run to
// quiescence, tear down) in this process, with solve_workers = 0. The
// harness repeats operations for `--seconds` of host time and reports
// medians. Nothing is timed inside the simulator: every timing wraps a call
// into a layer's public API (Testbed/Federation construction, boot_vm,
// settle, Simulation::run/run_until, EvacuationPlanner::plan), and every
// count is a counter the layers already expose.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced operations and prints the per-layer metrics: a traced
// operation advances the simulation with run_until in fixed slices of
// simulated time, times each slice on the host clock, and attributes it to
// the migration phase it overlaps. Slicing must not perturb the
// simulation, so every traced operation's simulated outputs are checked
// against the untraced ones.
//
// Every operation is checked for correctness; the seed-1 outputs are also
// checked against the values the repository pins today. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for the workloads and the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/evacuation_driver.h"
#include "core/federation.h"
#include "core/job.h"
#include "core/ninja.h"
#include "core/service_episode.h"
#include "core/testbed.h"
#include "plan/evacuation_planner.h"
#include "policy/policy.h"
#include "workloads/kv_service.h"
#include "workloads/npb.h"

namespace {

using namespace nm;
using Clock = std::chrono::steady_clock;

double lap(Clock::time_point& t) {
  const Clock::time_point now = Clock::now();
  const double s = std::chrono::duration<double>(now - t).count();
  t = now;
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// FNV-1a over 64-bit words: a compact fingerprint of an operation's
/// simulated outputs (equal fingerprints = identical outputs).
struct Fingerprint {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add_ns(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

// --- Phase attribution of traced host time ----------------------------------

struct Interval {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

enum Phase { kBefore, kPreCopy, kBlackout, kEpisode, kAfter, kPhaseCount };
constexpr std::array<const char*, kPhaseCount> kPhaseNames = {"before", "precopy", "blackout",
                                                              "episode", "after"};

/// Simulated-time phases of one scenario run. `episode` spans the first
/// migration start to the last landing; before/after are the run's time on
/// either side of it. Pre-copy and blackout are per migrated VM; a slice of
/// time counts as blackout while any VM is paused, else as pre-copy while
/// any VM is pre-copying.
struct Phases {
  std::int64_t run_start_ns = 0;
  Interval episode;
  std::vector<Interval> precopy;
  std::vector<Interval> blackout;
};

struct PhaseTotals {
  std::array<double, kPhaseCount> host_s{};
  std::array<double, kPhaseCount> sim_s{};
};

std::int64_t overlap(std::int64_t a, std::int64_t b, std::int64_t lo, std::int64_t hi) {
  return std::max<std::int64_t>(0, std::min(b, hi) - std::max(a, lo));
}

struct Segment {
  Interval span;
  Phase phase;
};

/// Disjoint, ordered segments labelled kBlackout / kPreCopy by severity.
std::vector<Segment> severity_segments(const Phases& p) {
  std::vector<std::tuple<std::int64_t, int, int>> edges;  // (t, d_precopy, d_blackout)
  for (const Interval& iv : p.precopy) {
    if (iv.end_ns > iv.begin_ns) {
      edges.emplace_back(iv.begin_ns, 1, 0);
      edges.emplace_back(iv.end_ns, -1, 0);
    }
  }
  for (const Interval& iv : p.blackout) {
    if (iv.end_ns > iv.begin_ns) {
      edges.emplace_back(iv.begin_ns, 0, 1);
      edges.emplace_back(iv.end_ns, 0, -1);
    }
  }
  std::sort(edges.begin(), edges.end());
  std::vector<Segment> out;
  int precopy = 0;
  int blackout = 0;
  std::int64_t prev = 0;
  for (const auto& [t, dp, db] : edges) {
    if ((precopy > 0 || blackout > 0) && t > prev) {
      out.push_back({{prev, t}, blackout > 0 ? kBlackout : kPreCopy});
    }
    precopy += dp;
    blackout += db;
    prev = t;
  }
  return out;
}

// --- Running a simulation, traced or not -------------------------------------

/// Advances a scenario's simulation until its event queue drains. Untraced:
/// one Simulation::run(). Traced: run_until in `slice` steps, each timed on
/// the host clock and kept in memory for phase attribution, sampling the
/// kernel's queue depth and live task count at every slice boundary.
class Runner {
 public:
  /// Bounds a traced run whose `done` never holds (the checks report it).
  static constexpr std::size_t kMaxSlices = 4'000'000;

  Runner(bool traced, Duration slice) : traced_(traced), slice_(slice) {}

  [[nodiscard]] bool traced() const { return traced_; }
  [[nodiscard]] std::size_t pending_peak() const { return pending_peak_; }
  [[nodiscard]] std::size_t live_peak() const { return live_peak_; }

  /// Returns the host seconds spent. Traced runs slice until `done` holds
  /// (the workload's own end of activity) and then finish with one run(),
  /// so both modes leave the simulation in the same final state; that tail
  /// is timed but not attributed to a phase.
  template <typename DoneFn>
  double drain(sim::Simulation& sim, DoneFn done) {
    slices_.clear();
    Clock::time_point t = Clock::now();
    if (!traced_) {
      sim.run();
      return lap(t);
    }
    do {
      pending_peak_ = std::max(pending_peak_, sim.pending_event_count());
      live_peak_ = std::max(live_peak_, sim.live_task_count());
      const std::int64_t begin = sim.now().count_nanos();
      Clock::time_point s = Clock::now();
      sim.run_until(sim.now() + slice_);
      slices_.push_back({begin, sim.now().count_nanos(), lap(s)});
    } while (!done() && sim.pending_event_count() > 0 && slices_.size() < kMaxSlices);
    sim.run();
    return lap(t);
  }

  /// Adds the last drain's slices to `totals`, splitting each slice's host
  /// time over the phases in proportion to simulated-time overlap.
  void attribute(const Phases& p, PhaseTotals& totals) const {
    const std::vector<Segment> segments = severity_segments(p);
    std::size_t first = 0;
    for (const SliceRecord& s : slices_) {
      const auto len = static_cast<double>(s.end_ns - s.begin_ns);
      if (len <= 0) {
        continue;
      }
      const auto add = [&](Phase ph, std::int64_t ns) {
        totals.host_s[ph] += s.host_s * static_cast<double>(ns) / len;
        totals.sim_s[ph] += static_cast<double>(ns) * 1e-9;
      };
      add(kBefore, overlap(s.begin_ns, s.end_ns, p.run_start_ns, p.episode.begin_ns));
      add(kEpisode, overlap(s.begin_ns, s.end_ns, p.episode.begin_ns, p.episode.end_ns));
      add(kAfter, overlap(s.begin_ns, s.end_ns, p.episode.end_ns, INT64_MAX));
      while (first < segments.size() && segments[first].span.end_ns <= s.begin_ns) {
        ++first;
      }
      for (std::size_t j = first; j < segments.size() && segments[j].span.begin_ns < s.end_ns;
           ++j) {
        add(segments[j].phase,
            overlap(s.begin_ns, s.end_ns, segments[j].span.begin_ns, segments[j].span.end_ns));
      }
    }
  }

 private:
  struct SliceRecord {
    std::int64_t begin_ns;
    std::int64_t end_ns;
    double host_s;
  };
  bool traced_;
  Duration slice_;
  std::vector<SliceRecord> slices_;
  std::size_t pending_peak_ = 0;
  std::size_t live_peak_ = 0;
};

// --- One operation's results --------------------------------------------------

struct OpOutput {
  // Host seconds.
  double build_s = 0;
  double boot_s = 0;
  double settle_s = 0;
  double run_s = 0;
  double wall_s = 0;  // the whole operation, teardown included
  // Simulated outputs.
  /// Run start to the workload's own end of activity, summed over
  /// scenarios (a drained queue can still hold idle far-future timers).
  double active_sim_s = 0;
  double episode_s = 0;
  double downtime_ms = 0;
  Fingerprint fingerprint;
  /// Per scenario: the instant the queue drained (untraced: the last event;
  /// traced: the end of the slice holding it, when it drained mid-slice).
  std::vector<std::int64_t> final_ns;
  std::vector<std::string> failures;
  /// Per-layer counters (deterministic) and traced host-time figures.
  std::map<std::string, double> layer;
  PhaseTotals phases;

  [[nodiscard]] double setup_s() const { return build_s + boot_s + settle_s; }
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
  void add(const std::string& key, double v) { layer[key] += v; }
};

/// Counters of the fluid SolvePool and the FluidNet boundary exchange.
void read_pool(sim::FluidNet& net, OpOutput& out) {
  if (const sim::SolvePool* pool = net.pool(); pool != nullptr) {
    out.add("pool.settles", static_cast<double>(pool->settle_count()));
    out.add("pool.solved_components", static_cast<double>(pool->solved_component_count()));
    out.layer["pool.max_batch"] =
        std::max(out.layer["pool.max_batch"], static_cast<double>(pool->max_batch_size()));
  }
  out.add("net.exchange_rounds", static_cast<double>(net.exchange_round_count()));
  out.add("net.exchange_skips", static_cast<double>(net.exchange_skip_count()));
  out.add("net.unconverged", static_cast<double>(net.unconverged_exchange_count()));
  out.layer["net.max_rounds_per_settle"] =
      std::max(out.layer["net.max_rounds_per_settle"],
               static_cast<double>(net.max_exchange_rounds_per_settle()));
}

void read_migration(const vmm::MigrationStats& st, OpOutput& out) {
  out.add("vmm.precopy_rounds", st.rounds);
  out.add("vmm.scanned_gib", st.scanned.to_gib());
  out.add("vmm.wire_gib", st.wire_bytes.to_gib());
  out.add("vmm.dup_saved_gib", st.dup_pages_saved.to_gib());
}

void fingerprint_migration(const vmm::MigrationStats& st, Fingerprint& fp) {
  fp.add(static_cast<std::uint64_t>(st.rounds));
  fp.add(st.scanned.count());
  fp.add(st.wire_bytes.count());
  fp.add_ns(st.downtime.count_nanos());
  fp.add_ns(st.start_at.count_nanos());
  fp.add_ns(st.pause_at.count_nanos());
  fp.add_ns(st.end_at.count_nanos());
}

// --- Workload: kv_live_migration ------------------------------------------------
//
// The examples/live_service scenario as pinned by bench_ablation --policies
// (static row): 4 KV servers, 4 open-loop zipfian fleets at 2600 req/s
// each for 10 s, 40% writes; kv0 migrates off eth0 2 s after the service
// starts. The seed is the testbed seed, which names every fleet's arrival,
// key and write streams.

struct KvPins {
  std::uint64_t requests = 104222;
  std::uint64_t digest = 16558630269266460623ULL;
  std::int64_t precopy_p99_ns = 17301504;
  std::int64_t blackout_ns = 20443262;
  std::int64_t total_ns = 3594708706;
};

constexpr Duration kKvWindow = Duration::seconds(10);
constexpr double kKvDowntimeSlack = 1.5;

void run_kv(std::uint64_t seed, Runner* runner, OpOutput& out) {
  Clock::time_point t = Clock::now();
  core::TestbedConfig config;
  // Two shards route settling through the SolvePool at 0 workers, the
  // schedule the pinned policy gate runs.
  config.fluid_shards = 2;
  config.seed = seed;
  core::Testbed testbed(config);
  out.build_s += lap(t);

  workloads::KvServiceConfig svc;
  svc.replicas = 2;
  svc.service_core_seconds = 1.38e-3;
  svc.worker_threads = 8;
  svc.zipf_s = 0.7;
  svc.deadline = Duration::millis(20);
  svc.write_fraction = 0.4;
  svc.value_bytes = Bytes::kib(8);
  workloads::KvService service(testbed, svc);
  std::vector<std::shared_ptr<vmm::Vm>> vms;
  for (int i = 0; i < 4; ++i) {
    vmm::VmSpec spec;
    spec.name = "kv" + std::to_string(i);
    spec.memory = Bytes::mib(256);
    spec.base_os_footprint = Bytes::mib(96);
    vms.push_back(testbed.boot_vm(testbed.eth_host(i), spec, /*with_hca=*/false));
    service.add_server(vms.back());
  }
  for (int i = 0; i < 4; ++i) {
    workloads::ClientFleetConfig fleet;
    fleet.name = "fleet" + std::to_string(i);
    fleet.rate_per_sec = 2600.0;
    fleet.window = kKvWindow;
    service.add_fleet(testbed.ib_host(i), fleet);
  }
  out.boot_s += lap(t);
  testbed.settle();
  out.settle_s += lap(t);
  if (runner == nullptr) {
    return;
  }

  sim::Simulation& sim = testbed.sim();
  core::ServiceEpisode episode(sim);
  service.observe_migration(&episode.live());
  service.start();
  core::EpisodeSpec spec(vms[0], testbed.eth_host(4));
  spec.after(Duration::seconds(2)).observe(service.observation_source());
  spec.with(policy::PolicySet{}, config.seed);
  (void)episode.start(std::move(spec));
  const TimePoint run_start = sim.now();
  const TimePoint window_end = run_start + kKvWindow;
  out.run_s += runner->drain(sim, [&] {
    return sim.now() >= window_end && episode.done() && service.in_flight() == 0;
  });
  out.final_ns.push_back(sim.now().count_nanos());

  const Duration bound = testbed.eth_host(0).migration_engine().config().max_downtime;
  out.expect(service.completed() == service.generated() && service.rejected() == 0,
             "kv: not every generated request completed");
  out.expect(episode.done(), "kv: migration episode did not finish");
  if (!episode.done()) {
    return;
  }
  // The downtime estimate uses the path's planning rate, but the final drain
  // shares the source host's NIC and CPU with the service, so under some
  // arrival draws the static policy's blackout overshoots max_downtime (up
  // to 1.2x over seeds 1-16). Seed 1 is held to its pinned blackout below.
  out.expect(episode.downtime_within(bound, kKvDowntimeSlack),
             "kv: blackout exceeds max_downtime x " + std::to_string(kKvDowntimeSlack));
  const core::ServiceEpisodeReport report = episode.report();
  const workloads::PhaseSlo& precopy = service.phase(vmm::MigrationPhase::kPreCopy);
  const std::int64_t precopy_p99_ns =
      precopy.latency.count() > 0 ? precopy.latency.percentile(0.99).count_nanos() : 0;
  out.episode_s += report.total.to_seconds();
  out.downtime_ms = std::max(out.downtime_ms, report.blackout.to_seconds() * 1e3);
  // Activity: arrivals over the window, then the drain of in-flight
  // requests (a few ms), or the migration if it ends later.
  out.active_sim_s += (std::max(window_end, report.end_at) - run_start).to_seconds();

  if (seed == 1) {
    const KvPins pin;
    out.expect(service.generated() == pin.requests && service.digest() == pin.digest &&
                   precopy_p99_ns == pin.precopy_p99_ns &&
                   report.blackout.count_nanos() == pin.blackout_ns &&
                   report.total.count_nanos() == pin.total_ns,
               "kv: seed-1 outputs differ from the pinned static row");
  }

  Fingerprint& fp = out.fingerprint;
  fp.add(service.digest());
  fp.add(service.generated());
  fp.add(service.completed());
  fp.add_ns(precopy_p99_ns);
  fingerprint_migration(episode.live(), fp);

  read_pool(testbed.net(), out);
  read_migration(episode.live(), out);
  out.add("kv.requests", static_cast<double>(service.generated()));
  out.add("kv.rejected", static_cast<double>(service.rejected()));
  out.add("kv.deadline_misses", static_cast<double>(service.deadline_misses()));
  const auto p99_ms = [&service](vmm::MigrationPhase ph) {
    const LatencyHistogram& h = service.phase(ph).latency;
    return h.count() > 0 ? h.percentile(0.99).to_seconds() * 1e3 : 0.0;
  };
  out.add("kv.steady_p99_ms", p99_ms(vmm::MigrationPhase::kSteady));
  out.add("kv.precopy_p99_ms", p99_ms(vmm::MigrationPhase::kPreCopy));
  out.add("kv.blackout_p99_ms", p99_ms(vmm::MigrationPhase::kBlackout));
  out.add("kv.post_p99_ms", p99_ms(vmm::MigrationPhase::kPost));

  if (runner->traced()) {
    const vmm::MigrationStats& live = episode.live();
    Phases phases;
    phases.run_start_ns = run_start.count_nanos();
    phases.episode = {live.start_at.count_nanos(), live.end_at.count_nanos()};
    phases.precopy.push_back({live.start_at.count_nanos(), live.pause_at.count_nanos()});
    phases.blackout.push_back(
        {live.pause_at.count_nanos(), (live.pause_at + live.downtime).count_nanos()});
    runner->attribute(phases, out.phases);
  }
}

// --- Workload: npb_ninja_episode ---------------------------------------------------
//
// The Fig 7 suite: BT, CG, FT, LU class D on 8 VMs x 8 ranks, each with one
// IB -> IB Ninja migration (blade rotation, HCA re-attach) issued 3 minutes
// in. The seed moves the issue instant within [3, 5) min in whole seconds
// (seed 1: 3 min, as in the figure), so the coordination lands at a
// different point of each kernel's iteration.

/// Seed-1 outputs per kernel, in suite order: rank 0's elapsed time (the
/// "proposed" bar of bench_fig7_npb) and the Ninja episode total.
struct NpbPin {
  const char* kernel;
  std::int64_t elapsed_ns;
  std::int64_t episode_ns;
};
constexpr std::array<NpbPin, 4> kNpbPins = {{
    {"BT", 977821304985, 114252328262},
    {"CG", 819783924231, 97186063008},
    {"FT", 730750173588, 187232931799},
    {"LU", 886523720058, 105470584282},
}};

Duration npb_issue_after(std::uint64_t seed) {
  return Duration::minutes(3) + Duration::seconds(static_cast<double>((seed - 1) * 37 % 120));
}

void run_npb(std::uint64_t seed, Runner* runner, OpOutput& out) {
  const std::vector<workloads::NpbSpec> suite = workloads::npb_class_d_suite();
  for (std::size_t k = 0; k < suite.size(); ++k) {
    const workloads::NpbSpec& spec = suite[k];
    Clock::time_point t = Clock::now();
    core::TestbedConfig tcfg;
    tcfg.hotplug.noise_factor = 3.0;
    tcfg.seed = seed;
    core::Testbed tb(tcfg);
    out.build_s += lap(t);
    core::JobConfig cfg;
    cfg.name = spec.name;
    cfg.vm_count = 8;
    cfg.ranks_per_vm = 8;
    core::MpiJob job(tb, cfg);
    out.boot_s += lap(t);
    job.init();
    out.settle_s += lap(t);
    if (runner == nullptr) {
      continue;
    }

    sim::Simulation& sim = tb.sim();
    // Guest OS hotplug daemons live for the VM's lifetime; the run itself
    // must leave no task behind.
    const std::size_t daemons = sim.live_task_count();
    const TimePoint t0 = sim.now();
    workloads::NpbResult r0;
    job.launch([&job, spec, &r0](mpi::RankId me) -> sim::Task {
      co_await workloads::run_npb_rank(job, me, spec, me == 0 ? &r0 : nullptr);
    });
    core::MigrationPlan plan;
    plan.vms = job.vms();
    for (int i = 0; i < 8; ++i) {
      plan.destinations.push_back(tb.ib_host((i + 1) % 8).name());
    }
    plan.attach_host_pci = core::Testbed::kHcaPciAddr;
    plan.ranks_per_vm = 8;
    const Duration issue_after = npb_issue_after(seed);
    core::NinjaStats stats;
    bool episode_done = false;
    sim.spawn([](sim::Simulation& s, core::MpiJob& j, core::MigrationPlan p, Duration after,
                 core::NinjaStats& st, bool& done) -> sim::Task {
      co_await s.delay(after);
      co_await j.ninja().execute(std::move(p), &st);
      done = true;
    }(sim, job, plan, issue_after, stats, episode_done));
    out.run_s +=
        runner->drain(sim, [&] { return episode_done && sim.live_task_count() == daemons; });
    out.final_ns.push_back(sim.now().count_nanos());
    out.active_sim_s += std::max(r0.elapsed, issue_after + stats.total).to_seconds();

    out.expect(episode_done, "npb " + spec.name + ": Ninja episode did not finish");
    out.expect(sim.live_task_count() == daemons,
               "npb " + spec.name + ": tasks still live at the end");
    out.expect(r0.iterations_done == spec.iterations,
               "npb " + spec.name + ": rank 0 did not finish every iteration");
    out.episode_s += stats.total.to_seconds();
    if (seed == 1) {
      out.expect(k < kNpbPins.size() && spec.name == kNpbPins[k].kernel &&
                     r0.elapsed.count_nanos() == kNpbPins[k].elapsed_ns &&
                     stats.total.count_nanos() == kNpbPins[k].episode_ns,
                 "npb " + spec.name + ": seed-1 outputs differ from the pinned Fig 7 run");
    }

    Fingerprint& fp = out.fingerprint;
    fp.add_ns(r0.elapsed.count_nanos());
    fp.add(static_cast<std::uint64_t>(r0.iterations_done));
    for (const Duration d : {stats.coordination, stats.detach, stats.migration, stats.attach,
                             stats.linkup, stats.total}) {
      fp.add_ns(d.count_nanos());
    }
    Phases phases;
    phases.run_start_ns = t0.count_nanos();
    const TimePoint episode_start = t0 + issue_after;
    phases.episode = {episode_start.count_nanos(), (episode_start + stats.total).count_nanos()};
    for (const vmm::MigrationStats& vm : stats.per_vm) {
      fingerprint_migration(vm, fp);
      read_migration(vm, out);
      out.downtime_ms = std::max(out.downtime_ms, vm.downtime.to_seconds() * 1e3);
      phases.precopy.push_back({vm.start_at.count_nanos(), vm.pause_at.count_nanos()});
      phases.blackout.push_back(
          {vm.pause_at.count_nanos(), (vm.pause_at + vm.downtime).count_nanos()});
    }
    out.add("ninja.coordination_s", stats.coordination.to_seconds());
    out.add("ninja.detach_s", stats.detach.to_seconds());
    out.add("ninja.migration_s", stats.migration.to_seconds());
    out.add("ninja.attach_s", stats.attach.to_seconds());
    out.add("ninja.linkup_s", stats.linkup.to_seconds());
    out.add("mpi.app_elapsed_s", r0.elapsed.to_seconds());
    out.add("mpi.iterations", r0.iterations_done);
    read_pool(tb.net(), out);
    if (runner->traced()) {
      runner->attribute(phases, out.phases);
    }
  }
}

// --- Workload: mesh_evacuation -----------------------------------------------------
//
// The examples/mass_evacuation planned drain: 1000 VMs (50 hosts x 20) off
// dc0 over a 5-site metro WanLink mesh, every VM re-dirtying a 32 MiB hot
// region every 10 s while the evacuation runs.

struct EvacPins {
  std::size_t evacuated = 1000;
  int waves = 65;
  std::int64_t makespan_ns = 3025343397076;  // printed as 3025.3 s
};

core::FederationConfig mesh_config(std::uint64_t seed) {
  core::FederationConfig fcfg;
  core::TestbedConfig source;
  source.ib_nodes = 0;
  source.eth_nodes = 50;
  core::TestbedConfig refuge;
  refuge.ib_nodes = 0;
  refuge.eth_nodes = 16;
  fcfg.sites = {{"dc0", source}, {"dc1", refuge}, {"dc2", refuge},
                {"dc3", refuge}, {"dc4", refuge}};
  sim::WanLinkConfig metro;
  metro.line_rate = Bandwidth::gbps(1);
  metro.rtt = Duration::millis(5);
  metro.loss = 0.0001;
  fcfg.edges = {{0, 1, metro}, {0, 2, metro}, {0, 3, metro}, {1, 4, metro}, {2, 4, metro}};
  fcfg.seed = seed;
  return fcfg;
}

/// The planner's input for `site`'s resident fleet, built the way
/// MassEvacuation::run collects it (flat site: no source leaves).
std::vector<plan::VmToMove> fleet_moves(core::Testbed& site) {
  std::vector<plan::VmToMove> moves;
  std::vector<vmm::Host*> hosts = site.all_hosts();
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    const bool compress = hosts[h]->migration_engine().config().compress_dup_pages;
    for (const auto& vm : hosts[h]->vms()) {
      const vmm::GuestMemory& mem = vm->memory();
      plan::VmToMove move;
      move.name = vm->name();
      move.bytes = static_cast<double>(mem.wire_size({0, mem.page_count()}, compress).count());
      move.scan_bytes = static_cast<double>(mem.size().count());
      move.src_host = h;
      moves.push_back(std::move(move));
    }
  }
  return moves;
}

void run_evac(std::uint64_t seed, Runner* runner, OpOutput& out) {
  constexpr int kVmsPerHost = 20;
  Clock::time_point t = Clock::now();
  core::Federation fed(mesh_config(seed));
  out.build_s += lap(t);
  std::vector<std::shared_ptr<vmm::Vm>> vms;
  core::Testbed& source = fed.site(0);
  for (int h = 0; h < source.eth_host_count(); ++h) {
    for (int v = 0; v < kVmsPerHost; ++v) {
      vmm::VmSpec spec;
      spec.name = "vm-" + std::to_string(h) + "-" + std::to_string(v);
      spec.memory = Bytes::gib(2);
      spec.base_os_footprint = Bytes::mib(256);
      auto vm = source.boot_vm(source.eth_host(h), spec, /*with_hca=*/false);
      vm->memory().write_data(Bytes::mib(256), Bytes::mib(256));
      vms.push_back(std::move(vm));
    }
  }
  out.boot_s += lap(t);
  fed.settle();
  out.settle_s += lap(t);
  if (runner == nullptr) {
    return;
  }

  // Guest dirtying: VM i first writes after stagger(i) ms, then one of its
  // eight 32 MiB hot regions every 10 s. The seed rotates both the stagger
  // and the starting region; seed 1 is the example's `i % 9973` / slot i.
  sim::Simulation& sim = fed.sim();
  const std::uint64_t shift = seed - 1;
  bool evacuation_done = false;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const std::uint64_t stagger_ms = (i + shift * 7919) % 9973;
    sim.spawn([](sim::Simulation& s, std::shared_ptr<vmm::Vm> vm, std::uint64_t delay_ms,
                 std::uint64_t slot, const bool& done) -> sim::Task {
      co_await s.delay(Duration::millis(static_cast<std::int64_t>(delay_ms)));
      while (!done) {
        vm->memory().write_data(Bytes::mib(256 + 32 * static_cast<std::int64_t>(slot % 8)),
                                Bytes::mib(32));
        slot += 1;
        co_await s.delay(Duration::seconds(10));
      }
    }(sim, vms[i], stagger_ms, i + shift, evacuation_done));
  }

  core::EvacuationConfig ecfg;
  ecfg.source_site = 0;
  core::MassEvacuation evac(fed, ecfg);
  core::EvacuationReport report;
  sim.spawn([](core::MassEvacuation& e, core::EvacuationReport& r, bool& done) -> sim::Task {
    co_await e.run(&r);
    done = true;
  }(evac, report, evacuation_done));

  // Plan-layer probe, outside the timed run: one standalone plan() over the
  // graph and fleet MassEvacuation::run is about to plan against.
  double predicted_makespan = 0.0;
  if (runner->traced()) {
    const std::vector<plan::VmToMove> moves = fleet_moves(source);
    const plan::EvacuationPlanner planner(evac.current_graph(/*nominal=*/true),
                                          evac.config().planner);
    Clock::time_point p = Clock::now();
    const plan::Plan probe = planner.plan(ecfg.source_site, moves);
    out.add("plan.plan_s", lap(p));
    predicted_makespan = probe.makespan;
  }

  const TimePoint run_start = sim.now();
  out.run_s += runner->drain(sim, [&evacuation_done] { return evacuation_done; });
  out.final_ns.push_back(sim.now().count_nanos());
  out.active_sim_s += static_cast<double>(report.done_ns - run_start.count_nanos()) * 1e-9;

  const Duration bound = source.eth_host(0).migration_engine().config().max_downtime;
  const Duration p99 = report.evacuated > 0 ? report.downtime_percentile(0.99) : Duration::zero();
  out.expect(evacuation_done && report.evacuated == vms.size(), "evac: not every VM landed");
  out.expect(p99 <= bound, "evac: p99 downtime exceeds max_downtime");
  out.expect(fed.unconverged_exchange_count() == 0, "evac: unconverged boundary exchange");
  out.episode_s += report.makespan().to_seconds();
  out.downtime_ms = std::max(out.downtime_ms, p99.to_seconds() * 1e3);
  if (seed == 1) {
    const EvacPins pin;
    out.expect(report.evacuated == pin.evacuated && report.waves == pin.waves &&
                   report.makespan().count_nanos() == pin.makespan_ns,
               "evac: seed-1 outputs differ from the pinned mass_evacuation run");
  }

  Fingerprint& fp = out.fingerprint;
  fp.add(static_cast<std::uint64_t>(report.waves));
  fp.add(static_cast<std::uint64_t>(report.replans));
  fp.add(report.evacuated);
  fp.add_ns(report.started_ns);
  fp.add_ns(report.done_ns);
  Phases phases;
  phases.run_start_ns = run_start.count_nanos();
  phases.episode = {report.started_ns, report.done_ns};
  for (const core::VmOutcome& vm : report.vms) {
    fp.add_ns(vm.start_ns);
    fp.add_ns(vm.done_ns);
    fp.add_ns(vm.downtime.count_nanos());
    const std::int64_t pause_ns = vm.done_ns - vm.downtime.count_nanos();
    phases.precopy.push_back({vm.start_ns, pause_ns});
    phases.blackout.push_back({pause_ns, vm.done_ns});
  }

  read_pool(fed.net(), out);
  out.add("plan.waves", report.waves);
  out.add("plan.replans", report.replans);
  if (runner->traced()) {
    out.add("plan.predicted_over_realized",
            ratio(predicted_makespan, report.makespan().to_seconds()));
    runner->attribute(phases, out.phases);
  }
}

// --- Harness --------------------------------------------------------------------

/// Median time of calibrate() on an idle 4-vCPU Intel Xeon VM: the core
/// speed the reported timings are scaled to.
constexpr double kCalibrationRefS = 0.007;

volatile std::uint64_t calibration_sink = 0;

/// Times a fixed ~7 ms of event-queue-like work: binary-heap churn plus
/// scattered counter updates, cache-resident and independent of the
/// simulator's code. On a shared machine a co-tenant can slow the core by
/// up to ~1.6x for tens of seconds at a time; this probe slows with it
/// (measured: evac operations over calibrate() stay within ~10% while raw
/// operation times move by ~50%), so timings scaled by
/// kCalibrationRefS / median(calibrate()) compare across runs.
double calibrate() {
  Clock::time_point t = Clock::now();
  std::vector<std::uint64_t> heap;
  heap.reserve(4097);
  std::vector<std::uint32_t> counters(1 << 16);
  std::uint64_t x = 88172645463325252ULL;  // xorshift64 state
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push_back(x);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > 4096) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      counters[heap.back() & 0xffffU] += 1;
      heap.pop_back();
    }
  }
  calibration_sink = counters[x & 0xffffU] + heap.front();
  return lap(t);
}

struct Workload {
  const char* name;
  /// Runs one operation; with a null runner, only its setup (build, boot,
  /// settle).
  void (*run)(std::uint64_t seed, Runner* runner, OpOutput& out);
  /// Simulated time per traced slice: fine enough to resolve the phases.
  Duration slice;
};

const std::array<Workload, 3> kWorkloads = {{
    {"kv_live_migration", run_kv, Duration::millis(1)},
    {"npb_ninja_episode", run_npb, Duration::millis(50)},
    {"mesh_evacuation", run_evac, Duration::millis(100)},
}};

OpOutput run_op(const Workload& w, std::uint64_t seed, bool traced) {
  OpOutput out;
  Runner runner(traced, w.slice);
  const Clock::time_point t0 = Clock::now();
  try {
    w.run(seed, &runner, out);
  } catch (const std::exception& e) {
    out.failures.push_back(std::string("exception: ") + e.what());
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.layer["sim.pending_events_peak"] = static_cast<double>(runner.pending_peak());
  out.layer["sim.live_tasks_peak"] = static_cast<double>(runner.live_peak());
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Median over operations of a per-operation figure.
template <typename Fn>
double median_of(const std::vector<OpOutput>& ops, Fn fn) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const OpOutput& op : ops) {
    v.push_back(fn(op));
  }
  return median(v);
}

/// Host times are scaled by `speed` (kCalibrationRefS over the run's median
/// calibrate() time) to the reference core speed.
std::vector<Metric> end_to_end(const std::vector<OpOutput>& ops,
                               const std::vector<OpOutput>& setups, double speed) {
  return {
      {"wall_s", speed * median_of(ops, [](const OpOutput& o) { return o.wall_s; }), "s"},
      {"sim_speed",
       median_of(ops, [](const OpOutput& o) { return ratio(o.active_sim_s, o.run_s); }) / speed,
       "sim_s/s"},
      {"setup_s", speed * median_of(setups, [](const OpOutput& o) { return o.setup_s(); }), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const std::vector<OpOutput>& traced,
                              const std::vector<OpOutput>& setups, double untraced_wall_s,
                              double speed, double fail_frac) {
  const auto med = [&traced](const std::string& key) {
    return median_of(traced, [&key](const OpOutput& o) {
      const auto it = o.layer.find(key);
      return it != o.layer.end() ? it->second : 0.0;
    });
  };
  const double run_s = speed * median_of(traced, [](const OpOutput& o) { return o.run_s; });
  const double settles = med("pool.settles");
  const double solves = med("pool.solved_components");
  const double rounds = med("net.exchange_rounds");
  const double scanned = med("vmm.scanned_gib");
  const double requests = med("kv.requests");
  // The simulated outcome a user of the reproduction reads. Deterministic
  // per seed, so the checks pin them; they vary across seeds by more than
  // a timing bound allows, so they are reported here rather than gated.
  const OpOutput& first = traced.front();
  std::vector<Metric> m = {
      {"episode_s", first.episode_s, "s"},
      {"downtime_ms", first.downtime_ms, "ms"},
      {"precopy_p99_ms", med("kv.precopy_p99_ms"), "ms"},
      {"deadline_miss_frac", ratio(med("kv.deadline_misses"), requests), "frac"},
      {"core.build_s", speed * median_of(setups, [](const OpOutput& o) { return o.build_s; }),
       "s"},
      {"core.boot_s", speed * median_of(setups, [](const OpOutput& o) { return o.boot_s; }), "s"},
      {"core.settle_s", speed * median_of(setups, [](const OpOutput& o) { return o.settle_s; }),
       "s"},
      {"sim.run_s", run_s, "s"},
      {"sim.pending_events_peak", med("sim.pending_events_peak"), "count"},
      {"sim.live_tasks_peak", med("sim.live_tasks_peak"), "count"},
  };
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    m.push_back({std::string("sim.host_ms_per_sim_s.") + kPhaseNames[ph],
                 speed * median_of(traced,
                                   [ph](const OpOutput& o) {
                                     return ratio(o.phases.host_s[ph] * 1e3, o.phases.sim_s[ph]);
                                   }),
                 "ms/s"});
  }
  const std::vector<Metric> rest = {
      {"pool.settles", settles, "count"},
      {"pool.solved_components", solves, "count"},
      {"pool.solves_per_settle", ratio(solves, settles), "ratio"},
      {"pool.max_batch", med("pool.max_batch"), "count"},
      {"pool.host_us_per_solve", ratio(run_s * 1e6, solves), "us"},
      {"net.exchange_rounds", rounds, "count"},
      {"net.exchange_skips", med("net.exchange_skips"), "count"},
      {"net.rounds_per_settle", ratio(rounds, settles), "ratio"},
      {"net.max_rounds_per_settle", med("net.max_rounds_per_settle"), "count"},
      {"net.unconverged", med("net.unconverged"), "count"},
      {"vmm.precopy_rounds", med("vmm.precopy_rounds"), "count"},
      {"vmm.scanned_gib", scanned, "GiB"},
      {"vmm.wire_gib", med("vmm.wire_gib"), "GiB"},
      {"vmm.dup_saved_gib", med("vmm.dup_saved_gib"), "GiB"},
      {"vmm.wire_per_scanned", ratio(med("vmm.wire_gib"), scanned), "ratio"},
      {"ninja.coordination_s", med("ninja.coordination_s"), "s"},
      {"ninja.detach_s", med("ninja.detach_s"), "s"},
      {"ninja.migration_s", med("ninja.migration_s"), "s"},
      {"ninja.attach_s", med("ninja.attach_s"), "s"},
      {"ninja.linkup_s", med("ninja.linkup_s"), "s"},
      {"mpi.app_elapsed_s", med("mpi.app_elapsed_s"), "s"},
      {"mpi.iterations", med("mpi.iterations"), "count"},
      {"plan.plan_s", speed * med("plan.plan_s"), "s"},
      {"plan.waves", med("plan.waves"), "count"},
      {"plan.replans", med("plan.replans"), "count"},
      {"plan.predicted_over_realized", med("plan.predicted_over_realized"), "ratio"},
      {"kv.requests", requests, "count"},
      {"kv.rejected", med("kv.rejected"), "count"},
      {"kv.solves_per_request", ratio(solves, requests), "ratio"},
      {"kv.steady_p99_ms", med("kv.steady_p99_ms"), "ms"},
      {"kv.blackout_p99_ms", med("kv.blackout_p99_ms"), "ms"},
      {"kv.post_p99_ms", med("kv.post_p99_ms"), "ms"},
      // The evac plan probe runs only in traced operations; leave it out.
      {"trace.overhead_frac",
       ratio(median_of(traced,
                       [](const OpOutput& o) {
                         const auto it = o.layer.find("plan.plan_s");
                         return o.wall_s - (it != o.layer.end() ? it->second : 0.0);
                       }),
             untraced_wall_s) -
           1.0,
       "frac"},
      {"fail_frac", fail_frac, "frac"},
      {"host.core_speed", speed, "ratio"},
      {"host.raw_wall_s", untraced_wall_s, "s"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "workloads:";
  for (const Workload& w : kWorkloads) {
    std::cerr << " " << w.name;
  }
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  if (argc % 2 == 0) {
    return usage();
  }
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        workload = value;
      } else if (key == "--seed") {
        seed = std::stoull(value);
      } else if (key == "--seconds") {
        seconds = std::stod(value);
      } else if (key == "--trace") {
        traced = value == "1";
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {  // non-numeric --seed / --seconds
    return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) {
      w = &candidate;
    }
  }
  if (w == nullptr || seed == 0 || !(seconds > 0)) {
    return usage();
  }
  // Untraced: operations until `seconds` of host time (at least 3).
  // Traced: untraced/traced pairs until `seconds` (at least 2 pairs).
  constexpr std::size_t kMinOps = 3;
  constexpr std::size_t kMinPairs = 2;
  constexpr std::size_t kSetupSamples = 201;
  std::vector<OpOutput> plain;
  std::vector<OpOutput> with_trace;
  std::vector<OpOutput> setups;
  std::vector<double> calibration;
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // Set-up alone, repeated: one set-up takes micro- to milliseconds, too
  // short to time steadily from a handful of operations. The passes are
  // spread over the run between operations, so they see the same machine
  // as the operations do.
  const auto setup_until = [&](std::size_t target) {
    while (setups.size() < target) {
      OpOutput& s = setups.emplace_back();
      try {
        w->run(seed, nullptr, s);
      } catch (const std::exception& e) {
        s.failures.push_back(std::string("exception: ") + e.what());
      }
    }
  };
  while (true) {
    plain.push_back(run_op(*w, seed, false));
    calibration.push_back(calibrate());
    if (traced) {
      with_trace.push_back(run_op(*w, seed, true));
      calibration.push_back(calibrate());
    }
    const double share = std::min(1.0, elapsed() / seconds);
    setup_until(static_cast<std::size_t>(share * static_cast<double>(kSetupSamples)));
    const std::size_t done = traced ? with_trace.size() : plain.size();
    if (done >= (traced ? kMinPairs : kMinOps) && elapsed() >= seconds) {
      break;
    }
  }
  setup_until(kSetupSamples);

  // Checks across operations: every operation, traced or not, yields the
  // reference's simulated outputs and drains its queue at the same instant
  // (a traced one within its last slice).
  const OpOutput& ref = plain.front();
  std::size_t failed = 0;
  const auto check = [&](OpOutput& op, bool is_traced) {
    if (op.fingerprint.h != ref.fingerprint.h) {
      op.failures.push_back("simulated outputs differ from the run's first operation");
    }
    if (op.final_ns.size() != ref.final_ns.size()) {
      op.failures.push_back("scenario count differs");
    } else {
      // A traced drain stops at a slice boundary: the last event lies in
      // the final slice.
      const std::int64_t slack = is_traced ? w->slice.count_nanos() : 0;
      for (std::size_t i = 0; i < op.final_ns.size(); ++i) {
        if (op.final_ns[i] < ref.final_ns[i] || op.final_ns[i] - ref.final_ns[i] >= slack + 1) {
          op.failures.push_back("final simulated instant differs");
        }
      }
    }
    for (const std::string& f : op.failures) {
      std::cerr << "perfbench: " << w->name << " seed " << seed << ": " << f << "\n";
    }
    failed += op.failures.empty() ? 0 : 1;
  };
  for (OpOutput& op : plain) {
    check(op, false);
  }
  for (OpOutput& op : with_trace) {
    check(op, true);
  }
  bool setups_ok = true;
  for (const OpOutput& s : setups) {
    for (const std::string& f : s.failures) {
      std::cerr << "perfbench: " << w->name << " seed " << seed << ": set-up: " << f << "\n";
      setups_ok = false;
    }
  }
  const std::size_t attempted = plain.size() + with_trace.size();
  const bool correct = failed == 0 && setups_ok;
  std::cerr << "perfbench: " << w->name << " seed " << seed << ": " << attempted
            << " operations and " << setups.size() << " set-ups in " << elapsed()
            << " s, fingerprint " << ref.fingerprint.h << "\n";
  const double speed = kCalibrationRefS / median(calibration);
  if (traced) {
    const double untraced_wall = median_of(plain, [](const OpOutput& o) { return o.wall_s; });
    print_result(correct, attempted, failed,
                 per_layer(with_trace, setups, untraced_wall, speed,
                           static_cast<double>(failed) / static_cast<double>(attempted)));
  } else {
    print_result(correct, attempted, failed, end_to_end(plain, setups, speed));
  }
  return 0;
}
