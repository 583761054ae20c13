#include "scenarios/kv.h"

#include <string>
#include <utility>

namespace nm::scenarios {
namespace {

core::TestbedConfig testbed_config(const KvShape& shape) {
  core::TestbedConfig config;
  config.fluid_shards = shape.fluid_shards;
  return config;
}

workloads::KvServiceConfig service_config(const KvShape& shape) {
  const bool heavy = shape.profile == KvProfile::kHeavy;
  workloads::KvServiceConfig svc;
  svc.replicas = 2;
  svc.zipf_s = 0.7;  // 0.99 would tip the hottest key's server over 1.0 utilisation
  svc.service_core_seconds = heavy ? 1.38e-3 : 1.0e-3;
  svc.worker_threads = heavy ? 8 : 4;
  svc.deadline = Duration::millis(heavy ? 20 : 15);
  svc.write_fraction = heavy ? 0.4 : 0.25;
  svc.value_bytes = Bytes::kib(8);
  return svc;
}

}  // namespace

KvScenario::KvScenario(const KvShape& shape)
    : shape_(shape),
      testbed_(testbed_config(shape)),
      service_(testbed_, service_config(shape)),
      episode_(testbed_.sim()) {
  const bool heavy = shape.profile == KvProfile::kHeavy;
  for (int i = 0; i < shape.servers; ++i) {
    vmm::VmSpec spec;
    spec.name = "kv" + std::to_string(i);
    // Small enough that a pre-copy round outruns the commit-log dirtying
    // and the downtime estimate converges while under load.
    spec.memory = Bytes::mib(heavy ? 256 : 192);
    spec.base_os_footprint = Bytes::mib(heavy ? 96 : 64);
    servers_.push_back(testbed_.boot_vm(testbed_.eth_host(i), spec, /*with_hca=*/false));
    service_.add_server(servers_.back());
  }
  for (int i = 0; i < shape.servers; ++i) {
    workloads::ClientFleetConfig fleet;
    fleet.name = "fleet" + std::to_string(i);
    fleet.rate_per_sec = shape.rate_per_fleet;
    fleet.window = shape.window;
    service_.add_fleet(testbed_.ib_host(i), fleet);
  }
  testbed_.settle();
}

core::EpisodeSpec KvScenario::episode_spec() {
  core::EpisodeSpec spec(servers_[0], testbed_.eth_host(shape_.servers));
  spec.after(shape_.migrate_at).observe(service_.observation_source());
  return spec;
}

void KvScenario::start(core::EpisodeSpec spec) {
  service_.observe_migration(&episode_.live());
  service_.start();
  (void)episode_.start(std::move(spec));
}

bool KvScenario::downtime_ok() {
  return episode_.done() &&
         episode_.downtime_within(testbed_.eth_host(0).migration_engine().config().max_downtime);
}

}  // namespace nm::scenarios
