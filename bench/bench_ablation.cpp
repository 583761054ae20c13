// Ablation benches for the design choices DESIGN.md calls out and the
// optimizations discussed in the paper's §V:
//   A. dup-page compression on/off (why memtest migrations are cheap);
//   B. TCP vs RDMA-based migration (the §V CPU-bottleneck discussion:
//      "the network throughput of migration is less than 1.3 Gbps ...
//      RDMA-based migration can reduce CPU utilization and improve the
//      throughput");
//   C. ompi_cr_continue_like_restart on/off (whether a recovery migration
//      re-acquires InfiniBand, §III-C);
//   D. InfiniBand link-up time sweep (what fixing the ~30 s port training
//      — an open issue in §V — would buy per episode).
// The migration-decision policy A/B under live service load is the
// `policies` row of bench_gate.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/job.h"
#include "core/ninja.h"
#include "core/testbed.h"
#include "util/table.h"
#include "workloads/bcast_reduce.h"
#include "workloads/memtest.h"

// Forward declaration for study E (defined below main's helpers).

namespace {

using namespace nm;

double migrate_20gib_memtest(bool compress, bool rdma) {
  core::TestbedConfig tcfg;
  tcfg.migration.compress_dup_pages = compress;
  tcfg.migration.use_rdma = rdma;
  core::Testbed tb(tcfg);
  core::JobConfig cfg;
  cfg.vm_count = 1;
  cfg.ranks_per_vm = 1;
  core::MpiJob job(tb, cfg);
  job.init();
  workloads::MemtestConfig mcfg;
  mcfg.array_size = Bytes::gib(8);
  mcfg.passes = 500;
  job.launch([&job, mcfg](mpi::RankId me) -> sim::Task {
    co_await workloads::run_memtest_rank(job, me, mcfg, nullptr);
  });
  core::NinjaStats stats;
  tb.sim().spawn([](core::Testbed& t, core::MpiJob& j, core::NinjaStats& st) -> sim::Task {
    co_await t.sim().delay(Duration::seconds(5.0));
    co_await j.fallback_migration(1, &st);
  }(tb, job, stats));
  tb.sim().run_for(Duration::minutes(20));
  return stats.migration.to_seconds();
}

double recovery_iteration_time(bool continue_like_restart) {
  core::Testbed tb;
  core::JobConfig cfg;
  cfg.vm_count = 4;
  cfg.ranks_per_vm = 1;
  cfg.on_ib_cluster = false;
  cfg.with_hca = false;
  cfg.mpi.continue_like_restart = continue_like_restart;
  core::MpiJob job(tb, cfg);
  job.init();
  workloads::BcastReduceConfig wcfg;
  wcfg.per_node_bytes = Bytes::gib(2);
  wcfg.iterations = 20;
  auto bench = std::make_shared<workloads::BcastReduceBench>(job, wcfg);
  job.launch([bench](mpi::RankId me) -> sim::Task { co_await bench->run_rank(me); });
  tb.sim().spawn([](core::MpiJob& j, std::shared_ptr<workloads::BcastReduceBench> b)
                     -> sim::Task {
    co_await b->wait_step(5);
    co_await j.recovery_migration(4);
  }(job, bench));
  tb.sim().run();
  // Mean of the post-recovery steady iterations.
  const auto& t = bench->iteration_seconds();
  double sum = 0;
  int n = 0;
  for (std::size_t i = 14; i < t.size(); ++i) {
    sum += t[i];
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

double episode_total_with_linkup(double linkup_seconds) {
  core::TestbedConfig tcfg;
  tcfg.ib.linkup_time = Duration::seconds(linkup_seconds);
  core::Testbed tb(tcfg);
  core::JobConfig cfg;
  cfg.vm_count = 4;
  cfg.ranks_per_vm = 1;
  core::MpiJob job(tb, cfg);
  job.init();
  workloads::BcastReduceConfig wcfg;
  wcfg.per_node_bytes = Bytes::gib(2);
  wcfg.iterations = 30;
  auto bench = std::make_shared<workloads::BcastReduceBench>(job, wcfg);
  job.launch([bench](mpi::RankId me) -> sim::Task { co_await bench->run_rank(me); });
  core::NinjaStats stats;
  tb.sim().spawn([](core::Testbed& t, core::MpiJob& j,
                    std::shared_ptr<workloads::BcastReduceBench> b,
                    core::NinjaStats& st) -> sim::Task {
    co_await b->wait_step(3);
    // IB -> IB rotation keeps the link-up on the critical path.
    core::MigrationPlan plan;
    plan.vms = j.vms();
    for (int i = 0; i < 4; ++i) {
      plan.destinations.push_back(t.ib_host((i + 1) % 4).name());
    }
    plan.attach_host_pci = core::Testbed::kHcaPciAddr;
    plan.ranks_per_vm = 1;
    co_await j.ninja().execute(std::move(plan), &st);
  }(tb, job, bench, stats));
  tb.sim().run();
  return stats.total.to_seconds();
}

double consolidated_iteration_time(bool sriov) {
  // 4 VMs consolidated on 2 InfiniBand blades. With plain passthrough
  // (vf=1) only one VM per blade can hold the HCA, so the job must run
  // TCP; with SR-IOV (vf>=2) every VM keeps a virtual function and the
  // consolidated job stays on InfiniBand — a configuration the paper's
  // testbed could not express.
  core::TestbedConfig tcfg;
  tcfg.hca_vfs = sriov ? 4 : 1;
  core::Testbed tb(tcfg);
  core::JobConfig cfg;
  cfg.vm_count = 4;
  cfg.ranks_per_vm = 1;
  cfg.on_ib_cluster = true;
  cfg.with_hca = false;  // start without; episode decides the transport
  core::MpiJob job(tb, cfg);
  job.init();
  workloads::BcastReduceConfig wcfg;
  wcfg.per_node_bytes = Bytes::gib(2);
  wcfg.iterations = 24;
  auto bench = std::make_shared<workloads::BcastReduceBench>(job, wcfg);
  job.launch([bench](mpi::RankId me) -> sim::Task { co_await bench->run_rank(me); });
  tb.sim().spawn([](core::Testbed& t, core::MpiJob& j,
                    std::shared_ptr<workloads::BcastReduceBench> b, bool vf) -> sim::Task {
    co_await b->wait_step(3);
    core::MigrationPlan plan;
    plan.vms = j.vms();
    plan.destinations = {t.ib_host(4).name(), t.ib_host(5).name()};  // 2 blades
    plan.ranks_per_vm = 1;
    if (vf) {
      plan.attach_host_pci = core::Testbed::kHcaPciAddr;  // a VF for every VM
    }
    co_await j.ninja().execute(std::move(plan));
  }(tb, job, bench, sriov));
  tb.sim().run();
  const auto& t = bench->iteration_seconds();
  double sum = 0;
  int n = 0;
  for (std::size_t i = 14; i < t.size(); ++i) {
    sum += t[i];
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

}  // namespace

int main() {
  bench::print_header("Ablations", "design-choice and §V-optimization studies");

  std::cout << "\nA/B. Migration of a 20 GiB memtest VM (8 GiB uniform array):\n";
  TextTable ab({"configuration", "migration time [s]"});
  const double tcp_comp = migrate_20gib_memtest(true, false);
  const double tcp_raw = migrate_20gib_memtest(false, false);
  const double rdma_comp = migrate_20gib_memtest(true, true);
  const double rdma_raw = migrate_20gib_memtest(false, true);
  ab.add_row({"TCP + dup-page compression (QEMU default)", TextTable::num(tcp_comp)});
  ab.add_row({"TCP, no compression", TextTable::num(tcp_raw)});
  ab.add_row({"RDMA + compression (paper SS V optimization)", TextTable::num(rdma_comp)});
  ab.add_row({"RDMA, no compression", TextTable::num(rdma_raw)});
  ab.render(std::cout);
  std::cout << "Compression hides the uniform array; RDMA removes the 1.3 Gb/s\n"
               "single-thread TCP cap (biggest win when pages do not compress).\n";

  std::cout << "\nC. ompi_cr_continue_like_restart (recovery migration Eth -> IB):\n";
  TextTable c({"flag", "post-recovery iteration [s]", "transport"});
  const double with_flag = recovery_iteration_time(true);
  const double without_flag = recovery_iteration_time(false);
  c.add_row({"set (paper's configuration)", TextTable::num(with_flag), "openib"});
  c.add_row({"unset", TextTable::num(without_flag), "tcp (never upgrades)"});
  c.render(std::cout);

  std::cout << "\nD. InfiniBand link-up time sweep (SS V open issue):\n";
  TextTable d({"linkup_time [s]", "ninja episode total [s]"});
  for (const double linkup : {29.9, 10.0, 1.0, 0.0}) {
    d.add_row({TextTable::num(linkup), TextTable::num(episode_total_with_linkup(linkup))});
  }
  d.render(std::cout);
  std::cout << "Eliminating the ~30 s port training is worth about that much per\n"
               "episode — the single biggest optimization opportunity the paper\n"
               "identifies.\n";

  std::cout << "\nE. SR-IOV extension: consolidating 4 VMs onto 2 IB blades:\n";
  TextTable e({"HCA mode", "post-consolidation iteration [s]", "transport"});
  const double tcp_iter = consolidated_iteration_time(false);
  const double vf_iter = consolidated_iteration_time(true);
  e.add_row({"PCI passthrough (paper's hardware)", TextTable::num(tcp_iter),
             "tcp (HCA cannot be shared)"});
  e.add_row({"SR-IOV, 4 VFs", TextTable::num(vf_iter), "openib (one VF per VM)"});
  e.render(std::cout);
  std::cout << "SR-IOV removes the only reason consolidated placements had to fall\n"
               "back to TCP — an extension experiment beyond the paper's testbed.\n";
  return 0;
}
