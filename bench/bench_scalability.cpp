// Scalability study (paper §V: "Our evaluation lacks scalability tests,
// but the proposed mechanism is essentially scalable. ... The migration
// time may significantly increase as the number of hosts increases due to
// network congestion").
//
// Sweeps:
//   1. episode total vs number of VMs (fallback IB -> Eth, 1:1 hosts) —
//      migrations run concurrently over disjoint host pairs, so the wall
//      time should be ~flat (the mechanism scales);
//   2. episode total vs ranks per VM — coordination is the only part that
//      can grow, and it is noise;
//   3. consolidation ratio (destination hosts < VMs) — incast onto fewer
//      receivers is where congestion actually shows up;
//   4. wide-area sweep: Ethernet fabric latency 30 us -> 50 ms (the §II
//      disaster-recovery / intercloud use case);
//   5. sharded federated pods: P isolated pods, each on its own
//      FluidDomain, constructed in parallel (one thread per pod) — the
//      merged timeline must stay bit-identical to the single-scheduler
//      serial build;
//   6. parallel dirty-domain solving: the SolvePool computes dirty pods on
//      worker threads, commits in canonical order — timeline bit-identical
//      to the serial drain.
//
// The value-pinned multi-domain scenarios (cross-domain boundary flows,
// federated and planned mass evacuation, service under migration, Clos
// evacuation) are rows of bench_gate.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/job.h"
#include "core/ninja.h"
#include "core/testbed.h"
#include "hw/cluster.h"
#include "net/port.h"
#include "sim/fluid.h"
#include "sim/solve_pool.h"
#include "util/table.h"
#include "workloads/bcast_reduce.h"

namespace {

using namespace nm;

struct RunConfig {
  int vms = 4;
  std::size_t ranks_per_vm = 1;
  int dst_hosts = 4;
  Duration eth_latency = Duration::micros(30);
  bool rdma = false;
};

core::NinjaStats run_fallback(const RunConfig& rc) {
  core::TestbedConfig tcfg;
  tcfg.eth.latency = rc.eth_latency;
  tcfg.migration.use_rdma = rc.rdma;
  core::Testbed tb(tcfg);
  core::JobConfig cfg;
  cfg.vm_count = rc.vms;
  cfg.ranks_per_vm = rc.ranks_per_vm;
  cfg.vm_template.memory = Bytes::gib(8);
  cfg.vm_template.base_os_footprint = Bytes::gib(1);
  core::MpiJob job(tb, cfg);
  job.init();

  workloads::BcastReduceConfig wcfg;
  wcfg.per_node_bytes = Bytes::mib(512);
  wcfg.iterations = 200;
  auto bench = std::make_shared<workloads::BcastReduceBench>(job, wcfg);
  job.launch([bench](mpi::RankId me) -> sim::Task { co_await bench->run_rank(me); });

  core::NinjaStats stats;
  tb.sim().spawn([](core::MpiJob& j, std::shared_ptr<workloads::BcastReduceBench> b,
                    int hosts, core::NinjaStats& st) -> sim::Task {
    co_await b->wait_step(2);
    co_await j.fallback_migration(hosts, &st);
  }(job, bench, rc.dst_hosts, stats));
  tb.sim().run_until(TimePoint::origin() + Duration::minutes(60));
  return stats;
}

// --- Sweep 5: sharded pods with parallel construction -----------------------

constexpr int kNodesPerPod = 8192;
// The flow program runs over a slice of each pod: the sweep measures
// construction scaling, the flows only pin the merged-timeline digest.
constexpr int kFlowNodes = 64;

// Starts the pods' flow program serially (flow admission posts settle
// events on the shared clock) and drains the merged timeline. The returned
// final time is the cross-pod digest: it covers every pod's completion.
std::int64_t run_pod_flows(sim::Simulation& sim, std::vector<bench::Pod>& pods,
                           const std::vector<sim::FluidDomain*>& pod_domain,
                           int flow_nodes = kFlowNodes) {
  for (std::size_t p = 0; p < pods.size(); ++p) {
    auto& sched = pod_domain[p]->scheduler();
    for (int n = 0; n < flow_nodes; ++n) {
      auto& node = pods[p].cluster->node(static_cast<std::size_t>(n));
      // A compute flow plus a ring transfer to the next node's NIC: the
      // slice forms one connected zone, so it must stay on one domain.
      sched.start(
          sim::FlowSpec{.work = (n + 1) * 0.05, .max_rate = 1.0}.over(node.cpu()));
      sched.start(sim::FlowSpec{.work = 1e8 * (n + 1)}
                      .over(pods[p].ports[static_cast<std::size_t>(n)]->tx())
                      .over(pods[p]
                                .ports[static_cast<std::size_t>((n + 1) % flow_nodes)]
                                ->rx()));
    }
  }
  return sim.run().count_nanos();
}

struct ShardResult {
  double construct_ms = 0.0;
  std::int64_t final_ns = 0;
};

ShardResult run_sharded(int pods, bool parallel) {
  sim::Simulation sim;
  std::vector<std::unique_ptr<sim::FluidDomain>> domains;
  std::vector<sim::FluidDomain*> pod_domain;
  if (parallel) {
    for (int p = 0; p < pods; ++p) {
      domains.push_back(std::make_unique<sim::FluidDomain>(sim, "pod" + std::to_string(p)));
      pod_domain.push_back(domains.back().get());
    }
  } else {
    domains.push_back(std::make_unique<sim::FluidDomain>(sim, "all-pods"));
    pod_domain.assign(static_cast<std::size_t>(pods), domains.front().get());
  }

  std::vector<bench::Pod> built(static_cast<std::size_t>(pods));
  const auto start = std::chrono::steady_clock::now();
  if (parallel) {
    // One worker per hardware thread (not per pod): on a single-core host
    // this degrades gracefully to ~serial cost instead of paying thread
    // thrash for nothing.
    const int workers_n =
        std::min(pods, std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(workers_n));
    for (int w = 0; w < workers_n; ++w) {
      workers.emplace_back([&built, &pod_domain, pods, workers_n, w] {
        for (int p = w; p < pods; p += workers_n) {
          built[static_cast<std::size_t>(p)] =
              bench::build_pod(*pod_domain[static_cast<std::size_t>(p)], p, kNodesPerPod);
        }
      });
    }
    for (auto& worker : workers) {
      worker.join();
    }
  } else {
    for (int p = 0; p < pods; ++p) {
      built[static_cast<std::size_t>(p)] =
          bench::build_pod(*pod_domain[static_cast<std::size_t>(p)], p, kNodesPerPod);
    }
  }
  const auto built_at = std::chrono::steady_clock::now();

  ShardResult res;
  res.construct_ms =
      std::chrono::duration<double, std::milli>(built_at - start).count();
  res.final_ns = run_pod_flows(sim, built, pod_domain);
  return res;
}

// --- Sweep 6: parallel dirty-domain solving (SolvePool) ---------------------

// Each pod is a ring of NIC flows plus per-node compute flows — one fat
// ~N-flow component and N singletons per pod. Every pod runs the same
// program, so each completion instant dirties all P domains at once: the
// SolvePool's settle batches genuinely span domains, and the expensive
// progressive-filling re-solve of each pod's ring runs on a different
// worker. Workers=0 is the no-pool serial baseline.
constexpr int kSolvePodNodes = 128;

struct SolveSweepResult {
  double wall_ms = 0.0;
  std::int64_t final_ns = 0;
  std::size_t parallel_settles = 0;
  std::size_t max_batch = 0;
};

SolveSweepResult run_parallel_solve(int pods, int workers) {
  sim::Simulation sim;
  std::unique_ptr<sim::SolvePool> pool;
  if (workers > 0) {
    pool = std::make_unique<sim::SolvePool>(sim, workers);
  }
  std::vector<std::unique_ptr<sim::FluidDomain>> domains;
  std::vector<sim::FluidDomain*> pod_domain;
  for (int p = 0; p < pods; ++p) {
    domains.push_back(std::make_unique<sim::FluidDomain>(sim, "pod" + std::to_string(p)));
    if (pool != nullptr) {
      pool->attach(domains.back()->scheduler());
    }
    pod_domain.push_back(domains.back().get());
  }
  std::vector<bench::Pod> built;
  built.reserve(static_cast<std::size_t>(pods));
  for (int p = 0; p < pods; ++p) {
    built.push_back(bench::build_pod(*pod_domain[static_cast<std::size_t>(p)], p, kSolvePodNodes));
  }

  SolveSweepResult res;
  const auto start = std::chrono::steady_clock::now();
  res.final_ns = run_pod_flows(sim, built, pod_domain, kSolvePodNodes);
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  if (pool != nullptr) {
    res.parallel_settles = pool->parallel_settle_count();
    res.max_batch = pool->max_batch_size();
  }
  // Domains detach in ~Pod/domain destruction order; the pool (destroyed
  // last among locals) must outlive them, which the declaration order above
  // guarantees: pool > domains > built.
  return res;
}

}  // namespace

int main() {
  bench::print_header("Scalability", "episode cost sweeps (paper SS V discussion)");

  std::cout << "\n1. VM count (1 VM per destination host, 8 GiB guests):\n";
  TextTable t1({"VMs", "episode total [s]", "migration [s]"});
  for (const int vms : {2, 4, 6, 8}) {
    RunConfig rc;
    rc.vms = vms;
    rc.dst_hosts = vms;
    const auto st = run_fallback(rc);
    t1.add_row({std::to_string(vms), TextTable::num(st.total.to_seconds()),
                TextTable::num(st.migration.to_seconds())});
  }
  t1.render(std::cout);
  std::cout << "Concurrent migrations over disjoint pairs: wall time ~flat — the\n"
               "mechanism itself scales, as the paper argues.\n";

  std::cout << "\n2. Ranks per VM (4 VMs):\n";
  TextTable t2({"ranks/VM", "total ranks", "episode total [s]", "coordination [s]"});
  for (const std::size_t rpv : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
    RunConfig rc;
    rc.ranks_per_vm = rpv;
    const auto st = run_fallback(rc);
    t2.add_row({std::to_string(rpv), std::to_string(4 * rpv),
                TextTable::num(st.total.to_seconds()),
                TextTable::num(st.coordination.to_seconds())});
  }
  t2.render(std::cout);

  std::cout << "\n3. Consolidation ratio (8 VMs onto fewer hosts — incast):\n";
  TextTable t3({"dst hosts", "VMs/host", "migration TCP [s]", "migration RDMA [s]"});
  for (const int hosts : {8, 4, 2, 1}) {
    RunConfig rc;
    rc.vms = 8;
    rc.dst_hosts = hosts;
    const auto tcp = run_fallback(rc);
    rc.rdma = true;
    const auto rdma = run_fallback(rc);
    t3.add_row({std::to_string(hosts), std::to_string(8 / hosts),
                TextTable::num(tcp.migration.to_seconds()),
                TextTable::num(rdma.migration.to_seconds())});
  }
  t3.render(std::cout);
  std::cout << "With the CPU-bound TCP sender (1.3 Gb/s each) the receivers never\n"
               "saturate; remove that cap (RDMA migration) and receiver-side\n"
               "congestion appears as VMs pile onto fewer hosts — the congestion\n"
               "effect the paper flags as the open scalability issue.\n";

  std::cout << "\n4. Wide-area latency sweep (4 VMs, disaster-recovery use case):\n";
  TextTable t4({"eth one-way latency", "episode total [s]", "migration [s]"});
  for (const double ms : {0.03, 2.0, 10.0, 50.0}) {
    RunConfig rc;
    rc.eth_latency = Duration::seconds(ms / 1000.0);
    const auto st = run_fallback(rc);
    t4.add_row({TextTable::num(ms, 2) + " ms", TextTable::num(st.total.to_seconds()),
                TextTable::num(st.migration.to_seconds())});
  }
  t4.render(std::cout);
  std::cout << "Bulk pre-copy is bandwidth-bound, so WAN latency barely moves the\n"
               "episode; the job's own traffic pays for it instead.\n";

  std::cout << "\n5. Sharded pods (" << kNodesPerPod
            << " nodes each; serial 1-scheduler build vs parallel per-pod domains, "
            << std::max(1U, std::thread::hardware_concurrency()) << " hw thread(s)):\n";
  TextTable t5({"pods", "serial build [ms]", "parallel build [ms]", "speedup",
                "timeline"});
  for (const int pods : {2, 4, 8}) {
    const auto serial = run_sharded(pods, /*parallel=*/false);
    const auto sharded = run_sharded(pods, /*parallel=*/true);
    t5.add_row({std::to_string(pods), TextTable::num(serial.construct_ms, 2),
                TextTable::num(sharded.construct_ms, 2),
                TextTable::num(serial.construct_ms / sharded.construct_ms, 2) + "x",
                serial.final_ns == sharded.final_ns ? "bit-identical" : "DIVERGED"});
  }
  t5.render(std::cout);
  std::cout << "Pods are disjoint zones, so per-pod FluidDomains are a valid\n"
               "sharding: domains solve independently, their timers merge through\n"
               "the one deterministic event queue, and the timeline matches the\n"
               "single-scheduler build bit for bit. Build speedup tracks the host's\n"
               "core count (on a 1-core container the column only shows thread\n"
               "overhead); the timeline column is the invariant that matters.\n";

  std::cout << "\n6. Parallel dirty-domain solving (" << kSolvePodNodes
            << "-node rings, 1 FluidDomain per pod, SolvePool settle; host has "
            << std::max(1U, std::thread::hardware_concurrency()) << " hw thread(s)):\n";
  TextTable t6({"pods", "workers", "drain [ms]", "speedup", "par settles",
                "max batch", "timeline"});
  for (const int pods : {2, 4}) {
    const auto baseline = run_parallel_solve(pods, /*workers=*/0);
    t6.add_row({std::to_string(pods), "0 (serial)", TextTable::num(baseline.wall_ms, 2),
                "1.00x", "-", "-", "baseline"});
    for (const int workers : {2, 4}) {
      const auto r = run_parallel_solve(pods, workers);
      t6.add_row({std::to_string(pods), std::to_string(workers),
                  TextTable::num(r.wall_ms, 2),
                  TextTable::num(baseline.wall_ms / r.wall_ms, 2) + "x",
                  std::to_string(r.parallel_settles), std::to_string(r.max_batch),
                  r.final_ns == baseline.final_ns ? "bit-identical" : "DIVERGED"});
    }
  }
  t6.render(std::cout);
  std::cout << "Every completion instant dirties all P pods at once, so the pool's\n"
               "settle batches span domains: compute runs on the workers, commits\n"
               "replay in canonical (domain, component) order, and the timeline\n"
               "stays bit-identical to the serial drain at every worker count.\n"
               "Speedup tracks min(pods, cores); on a 1-core host the pool only\n"
               "adds handoff overhead — the determinism column is the invariant.\n";
  return 0;
}
