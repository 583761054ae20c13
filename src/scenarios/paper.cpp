#include "scenarios/paper.h"

#include <string>
#include <utility>
#include <vector>

#include "symvirt/coordinator.h"
#include "workloads/memtest.h"

namespace nm::scenarios {
namespace {

core::TestbedConfig with_noise(double noise_factor) {
  core::TestbedConfig config;
  config.hotplug.noise_factor = noise_factor;
  return config;
}

core::JobConfig job_config(std::string name, std::size_t ranks_per_vm, bool with_hca = true) {
  core::JobConfig cfg;
  cfg.name = std::move(name);
  cfg.vm_count = 8;
  cfg.ranks_per_vm = ranks_per_vm;
  cfg.with_hca = with_hca;
  return cfg;
}

void launch_memtest(core::MpiJob& job, Bytes array, int passes) {
  workloads::MemtestConfig mcfg;
  mcfg.array_size = array;
  mcfg.passes = passes;  // keep the job alive across the episode
  job.launch([&job, mcfg](mpi::RankId me) -> sim::Task {
    co_await workloads::run_memtest_rank(job, me, mcfg, nullptr);
  });
}

}  // namespace

PaperRun::PaperRun(double noise_factor, core::JobConfig job)
    : testbed_(with_noise(noise_factor)), job_(testbed_, std::move(job)) {
  job_.init();
}

PaperRun::PaperRun(const Table2& c) : PaperRun(1.0, job_config("memtest", 1, c.src_ib)) {
  launch_memtest(job_, Bytes::gib(2), 400);
  arm(/*self_migration=*/true, c.dst_ib, Duration::seconds(2.0));
}

PaperRun::PaperRun(const Fig6& c) : PaperRun(3.0, job_config("memtest", 1)) {
  launch_memtest(job_, c.array, 1000);
  arm(/*self_migration=*/false, /*attach_hca=*/true, Duration::seconds(5.0));
}

PaperRun::PaperRun(const Fig7& c) : PaperRun(3.0, job_config(c.spec.name, 8)) {
  job_.launch([this, spec = c.spec](mpi::RankId me) -> sim::Task {
    co_await workloads::run_npb_rank(job_, me, spec, me == 0 ? &npb_ : nullptr);
  });
  if (c.with_migration) {
    arm(/*self_migration=*/false, /*attach_hca=*/true, Duration::minutes(3));
  }
}

void PaperRun::arm(bool self_migration, bool attach_hca, Duration after) {
  core::MigrationPlan plan;
  plan.vms = job_.vms();
  for (int i = 0; i < 8; ++i) {
    plan.destinations.push_back(self_migration ? plan.vms[i]->host().name()
                                               : testbed_.ib_host((i + 1) % 8).name());
  }
  if (attach_hca) {
    plan.attach_host_pci = core::Testbed::kHcaPciAddr;
  }
  plan.ranks_per_vm = job_.config().ranks_per_vm;
  testbed_.sim().spawn([](sim::Simulation& sim, core::MpiJob& job, core::MigrationPlan p,
                          Duration delay, core::NinjaStats& stats) -> sim::Task {
    co_await sim.delay(delay);
    co_await job.ninja().execute(std::move(p), &stats);
  }(testbed_.sim(), job_, std::move(plan), after, ninja_));
}

Duration PaperRun::hotplug() const { return ninja_.hotplug(symvirt::CoordinatorTiming{}.confirm); }

Duration PaperRun::linkup() const {
  return ninja_.linkup_excl_confirm(symvirt::CoordinatorTiming{}.confirm);
}

}  // namespace nm::scenarios
