// Shared helpers for the reproduction benches: headers, paper-vs-measured
// tables, and the isolated pods the multi-domain scenarios build.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "hw/cluster.h"
#include "net/port.h"
#include "sim/fluid.h"
#include "util/table.h"

namespace nm::bench {

inline void print_header(const std::string& experiment_id, const std::string& description) {
  std::cout << "\n=================================================================\n"
            << experiment_id << " — " << description << "\n"
            << "Testbed: modelled AIST AGC cluster (Table I): 16 blades, 8-core\n"
            << "Xeon E5540, 48 GiB; QDR InfiniBand (8 nodes) + 10 GbE (16 nodes);\n"
            << "QEMU/KVM-model VMs, NFS-model shared storage. Deterministic\n"
            << "simulation — no error bars; the paper reports best-of-3.\n"
            << "=================================================================\n";
}

/// One paper-vs-measured row.
struct CompareRow {
  std::string label;
  double paper = 0.0;
  double measured = 0.0;
};

inline void print_compare(const std::string& metric, const std::vector<CompareRow>& rows) {
  TextTable table({"case", metric + " (paper)", metric + " (this repro)", "ratio"});
  for (const auto& row : rows) {
    const double ratio = row.paper > 0 ? row.measured / row.paper : 0.0;
    table.add_row({row.label, TextTable::num(row.paper), TextTable::num(row.measured),
                   row.paper > 0 ? TextTable::num(ratio) : "-"});
  }
  table.render(std::cout);
}

/// An isolated pod: a cluster whose nodes each own one 10 GiB/s NIC port.
struct Pod {
  std::unique_ptr<hw::Cluster> cluster;
  std::vector<std::unique_ptr<net::NicPort>> ports;
};

/// Builds pod `p` (`node_count` nodes + NIC ports) entirely inside
/// `domain`. Pure resource registration: it posts nothing to the
/// simulation.
inline Pod build_pod(sim::FluidDomain& domain, int p, int node_count) {
  Pod pod;
  pod.cluster = std::make_unique<hw::Cluster>("pod" + std::to_string(p));
  pod.ports.reserve(static_cast<std::size_t>(node_count));
  for (int n = 0; n < node_count; ++n) {
    hw::NodeSpec spec;
    spec.name = "pod" + std::to_string(p) + ":n" + std::to_string(n);
    auto& node = pod.cluster->add_node(domain, spec);
    pod.ports.push_back(std::make_unique<net::NicPort>(node, spec.name + ":eth",
                                                       Bandwidth::gib_per_sec(10.0)));
  }
  return pod;
}

}  // namespace nm::bench
