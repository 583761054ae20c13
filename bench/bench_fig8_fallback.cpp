// Figure 8 reproduction: fallback and recovery migration under the
// bcast+reduce workload ("8 GB data per node", 40 iteration steps). The
// scenario is the paper's:
//     4 hosts (IB) -> 2 hosts (TCP) -> 4 hosts (IB) -> 4 hosts (TCP)
// with Ninja launched every 10 iteration steps (episodes land in steps
// 11, 21, 31). Run twice: 1 process/VM (4 ranks) and 8 processes/VM
// (32 ranks).
//
// Shape to reproduce:
//   - per-iteration time tracks the interconnect (IB fast, TCP slow,
//     consolidated "2 hosts (TCP)" slowest with 8 procs/VM due to CPU
//     over-commit);
//   - steps 11/21/31 carry the migration overhead on top;
//   - 8 procs/VM iterations are faster than 1 proc/VM (except the
//     over-committed phase);
//   - total overhead does not grow with the rank count.
#include <iostream>
#include <memory>

#include "bench/common.h"
#include "core/job.h"
#include "core/ninja.h"
#include "core/testbed.h"
#include "util/table.h"
#include "workloads/bcast_reduce.h"

namespace {

using namespace nm;

// The paper's job: 4 VMs, 40 bcast+reduce steps of 8 GiB per node.
constexpr int kVms = 4;
constexpr int kIterations = 40;
constexpr std::uint64_t kGibPerNode = 8;

struct ScenarioResult {
  std::vector<double> iter_seconds;
  core::NinjaStats episodes[3];
};

ScenarioResult run_scenario(std::size_t ranks_per_vm) {
  core::Testbed tb;
  core::JobConfig cfg;
  cfg.name = "bcastreduce";
  cfg.vm_count = kVms;
  cfg.ranks_per_vm = ranks_per_vm;
  core::MpiJob job(tb, cfg);
  job.init();

  workloads::BcastReduceConfig wcfg;
  wcfg.per_node_bytes = Bytes::gib(kGibPerNode);
  wcfg.iterations = kIterations;
  auto bench = std::make_shared<workloads::BcastReduceBench>(job, wcfg);
  job.launch([bench](mpi::RankId me) -> sim::Task { co_await bench->run_rank(me); });

  ScenarioResult result;
  tb.sim().spawn([](core::Testbed& t, core::MpiJob& j,
                    std::shared_ptr<workloads::BcastReduceBench> b,
                    ScenarioResult& out) -> sim::Task {
    // Step 10 -> fallback onto 2 Ethernet hosts (consolidation).
    co_await b->wait_step(10);
    co_await j.fallback_migration(/*host_count=*/2, &out.episodes[0]);
    // Step 20 -> recovery onto 4 InfiniBand hosts (HCAs re-attached).
    co_await b->wait_step(20);
    co_await j.recovery_migration(j.config().vm_count, &out.episodes[1]);
    // Step 30 -> Ethernet hosts 1:1, TCP only.
    co_await b->wait_step(30);
    std::vector<std::string> dsts;
    for (int i = 0; i < j.config().vm_count; ++i) {
      dsts.push_back(t.eth_host(i).name());
    }
    co_await j.tcp_migration(dsts, &out.episodes[2]);
  }(tb, job, bench, result));

  tb.sim().run();
  result.iter_seconds = bench->iteration_seconds();
  return result;
}

void report(const char* label, const ScenarioResult& r) {
  std::cout << "\n--- " << label << " ---\n";
  TextTable table({"steps", "phase", "mean iter [s]", "note"});
  auto mean_of = [&](int lo, int hi) {  // 1-based inclusive, skip episodes
    double sum = 0;
    int n = 0;
    for (int s = lo; s <= hi && s <= static_cast<int>(r.iter_seconds.size()); ++s) {
      if (s == 11 || s == 21 || s == 31) {
        continue;
      }
      sum += r.iter_seconds[static_cast<std::size_t>(s - 1)];
      ++n;
    }
    return n > 0 ? sum / n : 0.0;
  };
  table.add_row({"1-10", "4 hosts (IB)", TextTable::num(mean_of(1, 10)), ""});
  table.add_row({"11-20", "2 hosts (TCP)", TextTable::num(mean_of(11, 20)),
                 "consolidated, CPU over-commit"});
  table.add_row({"21-30", "4 hosts (IB)", TextTable::num(mean_of(21, 30)), "recovered"});
  table.add_row({"31-40", "4 hosts (TCP)", TextTable::num(mean_of(31, 40)), ""});
  table.render(std::cout);

  TextTable mig({"episode", "at step", "iter incl. overhead [s]", "ninja total [s]",
                 "migration", "hotplug+linkup"});
  const char* names[3] = {"fallback -> 2xEth", "recovery -> 4xIB", "fallback -> 4xEth"};
  const int steps[3] = {11, 21, 31};
  const Duration confirm = symvirt::CoordinatorTiming{}.confirm;
  for (int e = 0; e < 3; ++e) {
    const auto& st = r.episodes[e];
    mig.add_row({names[e], std::to_string(steps[e]),
                 TextTable::num(r.iter_seconds[static_cast<std::size_t>(steps[e] - 1)]),
                 TextTable::num(st.total.to_seconds()),
                 TextTable::num(st.migration.to_seconds()),
                 TextTable::num(st.hotplug(confirm).to_seconds() +
                                st.linkup_excl_confirm(confirm).to_seconds())});
  }
  mig.render(std::cout);

  StackedBarChart chart("per-iteration time (top of bar at steps 11/21/31 = overhead)",
                        {"iteration"});
  for (std::size_t i = 0; i < r.iter_seconds.size(); ++i) {
    chart.add_bar("step " + std::to_string(i + 1), {r.iter_seconds[i]});
  }
  chart.set_width(50);
  chart.render(std::cout);
}

}  // namespace

int main() {
  bench::print_header("Figure 8",
                      "Fallback and recovery migration, bcast+reduce of 8 GB per node, "
                      "40 steps, Ninja at steps 11/21/31");

  const auto r1 = run_scenario(1);
  report("a) 1 process / VM", r1);
  const auto r8 = run_scenario(8);
  report("b) 8 processes / VM", r8);

  // Cross-run shape checks.
  auto total_overhead = [](const ScenarioResult& r) {
    double t = 0;
    for (const auto& e : r.episodes) {
      t += e.total.to_seconds();
    }
    return t;
  };
  std::cout << "\nTotal Ninja overhead: 1 proc/VM " << total_overhead(r1) << " s, 8 procs/VM "
            << total_overhead(r8)
            << " s (paper: \"the total overhead is identical as the number of\n"
               "processes per VM increases from 1 to 8\").\n";
  return 0;
}
