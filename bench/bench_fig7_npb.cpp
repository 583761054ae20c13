// Figure 7 reproduction: NPB 3.3 class D, 64 processes (8 VMs x 8 ranks),
// baseline vs proposed (one Ninja migration issued 3 minutes after start),
// with the overhead broken into migration / hotplug / link-up. The
// migration is IB -> IB (blade rotation with HCA re-attach), as in the
// paper ("both the source and the destination clusters use Infiniband
// only").
//
// Claims to reproduce:
//   1. no overhead during normal operation: the application segment of the
//      proposed bar equals the baseline bar;
//   2. the migration segment is basically proportional to the memory
//      footprint (NPB data is incompressible; footprints 2.3-16 GB per VM,
//      FT largest);
//   3. hotplug and link-up are constant across benchmarks.
#include <iostream>

#include "bench/common.h"
#include "scenarios/paper.h"
#include "util/table.h"

namespace {

using namespace nm;

/// Rank 0's elapsed time and the episode's migration, hotplug and link-up,
/// in seconds.
struct RunResult {
  double total = 0;
  double migration = 0;
  double hotplug = 0;
  double linkup = 0;
};

RunResult run_kernel(const workloads::NpbSpec& spec, bool with_migration) {
  scenarios::PaperRun run(scenarios::Fig7{spec, with_migration});
  run.testbed().sim().run();
  return {run.npb().elapsed.to_seconds(), run.ninja().migration.to_seconds(),
          run.hotplug().to_seconds(), run.linkup().to_seconds()};
}

}  // namespace

int main() {
  bench::print_header("Figure 7",
                      "NPB 3.3 class D, 64 processes: baseline vs proposed [seconds]");

  StackedBarChart chart("baseline vs proposed (this repro)",
                        {"application", "migration", "hotplug", "linkup"});
  TextTable table({"bench", "baseline", "proposed", "overhead", "migration", "hotplug",
                   "linkup", "footprint/VM"});
  for (const auto& spec : workloads::npb_class_d_suite()) {
    const RunResult base = run_kernel(spec, false);
    const RunResult prop = run_kernel(spec, true);
    const double mig = prop.migration;
    const double hot = prop.hotplug;
    const double link = prop.linkup;
    const double overhead = prop.total - base.total;
    chart.add_bar(spec.name + " base", {base.total, 0, 0, 0});
    chart.add_bar(spec.name + " prop", {prop.total - mig - hot - link, mig, hot, link});
    table.add_row({spec.name, TextTable::num(base.total), TextTable::num(prop.total),
                   TextTable::num(overhead), TextTable::num(mig), TextTable::num(hot),
                   TextTable::num(link),
                   TextTable::num(spec.footprint_per_vm.to_gib()) + "GiB"});
  }
  table.render(std::cout);
  std::cout << "\n";
  chart.render(std::cout);
  std::cout
      << "\nShape checks: (1) proposed - overhead == baseline (no overhead in\n"
      << "normal operation: the CR stack is dormant until triggered);\n"
      << "(2) migration grows with the per-VM footprint (FT largest);\n"
      << "(3) hotplug and link-up are constant across the four kernels.\n"
      << "The paper's Fig 7 bars (class D on real hardware) are 600-1100 s\n"
      << "with migration segments ordered by footprint — compare shapes, not\n"
      << "absolute seconds (see EXPERIMENTS.md).\n";
  return 0;
}
