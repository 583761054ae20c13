// Table II reproduction: elapsed time of hotplug and link-up for the four
// interconnect transitions, measured with self-migration (each VM migrates
// to a new QEMU on the same node), 8 VMs running memtest (2 GiB array),
// one MPI process per VM.
//
// Paper values [seconds]:
//   IB  -> IB  : hotplug 3.88, link-up 29.91
//   IB  -> Eth : hotplug 2.80, link-up  0.00
//   Eth -> IB  : hotplug 1.15, link-up 29.79
//   Eth -> Eth : hotplug 0.13, link-up  0.00
#include <iostream>
#include <memory>

#include "bench/common.h"
#include "scenarios/paper.h"

namespace {

using namespace nm;

struct Case {
  const char* label;
  bool src_ib;   // VMs hold an HCA before the episode
  bool dst_ib;   // HCAs are re-attached after the self-migration
  double paper_hotplug;
  double paper_linkup;
};

}  // namespace

int main() {
  bench::print_header("Table II", "Elapsed time of hotplug and link-up [seconds]");

  const Case cases[] = {
      {"Infiniband -> Infiniband", true, true, 3.88, 29.91},
      {"Infiniband -> Ethernet", true, false, 2.80, 0.00},
      {"Ethernet -> Infiniband", false, true, 1.15, 29.79},
      {"Ethernet -> Ethernet", false, false, 0.13, 0.00},
  };
  std::vector<bench::CompareRow> hotplug_rows;
  std::vector<bench::CompareRow> linkup_rows;
  for (const auto& c : cases) {
    scenarios::PaperRun run(scenarios::Table2{c.src_ib, c.dst_ib});
    run.testbed().sim().run_for(Duration::minutes(5));
    hotplug_rows.push_back({c.label, c.paper_hotplug, run.hotplug().to_seconds()});
    linkup_rows.push_back({c.label, c.paper_linkup, run.linkup().to_seconds()});
  }
  std::cout << "\nHotplug time (detach + re-attach + confirm):\n";
  bench::print_compare("hotplug [s]", hotplug_rows);
  std::cout << "\nLink-up time (wait until the port is usable in the guest):\n";
  bench::print_compare("link-up [s]", linkup_rows);
  std::cout << "\nCalibration identity: detach_ib=2.67 attach_ib=1.02 confirm=0.13\n"
            << "linkup_ib=29.9 reproduce all four paper rows (see DESIGN.md).\n";
  return 0;
}
