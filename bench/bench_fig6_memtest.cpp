// Figure 6 reproduction: the overhead of Ninja migration on the memtest
// micro-benchmark, broken into migration / hotplug / link-up, for array
// sizes 2-16 GiB. 8 VMs (20 GiB each) on the InfiniBand cluster; the whole
// job migrates IB -> IB (each VM rotates to the next blade) with HCAs
// re-attached; hotplug runs under whole-cluster "migration noise" (x3,
// calibrated from the paper's observation in §IV-B2).
//
// Paper values [seconds] (migration / hotplug / link-up):
//   2 GiB : 53.7 / 14.6 / 28.5
//   4 GiB : 35.9 / 13.5 / 28.5
//   8 GiB : 38.7 / 12.5 / 28.5
//   16 GiB: 44.2 / 11.3 / 28.6
// Shape to reproduce: migration is dominated by the full 20 GiB traversal
// (memtest pages are uniform and compress to 9-byte markers), so it depends
// only weakly on the array size; hotplug and link-up are constant.
#include <iostream>

#include "bench/common.h"
#include "scenarios/paper.h"
#include "util/table.h"

using namespace nm;

int main() {
  bench::print_header("Figure 6",
                      "Ninja migration overhead on memtest, by array size [seconds]");

  struct PaperRow {
    double migration, hotplug, linkup;
  };
  const PaperRow paper[] = {
      {53.7, 14.6, 28.5}, {35.9, 13.5, 28.5}, {38.7, 12.5, 28.5}, {44.2, 11.3, 28.6}};
  const Bytes sizes[] = {Bytes::gib(2), Bytes::gib(4), Bytes::gib(8), Bytes::gib(16)};
  StackedBarChart chart("Ninja overhead breakdown (this repro)",
                        {"migration", "hotplug", "linkup"});
  TextTable table({"array", "migration (paper/ours)", "hotplug (paper/ours)",
                   "linkup (paper/ours)", "total (paper/ours)"});
  for (int i = 0; i < 4; ++i) {
    scenarios::PaperRun run(scenarios::Fig6{sizes[i]});
    run.testbed().sim().run_for(Duration::minutes(10));
    const double mig = run.ninja().migration.to_seconds();
    const double hot = run.hotplug().to_seconds();
    const double link = run.linkup().to_seconds();
    chart.add_bar(std::to_string(sizes[i].count() >> 30) + "GB", {mig, hot, link});
    const auto& p = paper[i];
    table.add_row({std::to_string(sizes[i].count() >> 30) + "GB",
                   TextTable::num(p.migration) + " / " + TextTable::num(mig),
                   TextTable::num(p.hotplug) + " / " + TextTable::num(hot),
                   TextTable::num(p.linkup) + " / " + TextTable::num(link),
                   TextTable::num(p.migration + p.hotplug + p.linkup) + " / " +
                       TextTable::num(mig + hot + link)});
  }
  table.render(std::cout);
  std::cout << "\n";
  chart.render(std::cout);
  std::cout << "\nShape checks: migration is dominated by traversing all 20 GiB of\n"
            << "guest memory (memtest pages compress), so it varies only weakly\n"
            << "with the array size; hotplug (~3x the self-migration time under\n"
            << "migration noise) and the ~30 s InfiniBand link-up are constant.\n";
  return 0;
}
