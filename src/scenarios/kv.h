// The kv scenario: live migration of a loaded KV server.
//
// `servers` KV server VMs (kv<i> on eth_host(i)) serve an open-loop
// zipfian load from as many client fleets (fleet<i> on ib_host(i)), two
// replicas per request, 8 KiB values. The episode moves kv0 to the spare
// blade eth_host(servers) while the fleets keep hammering it. Callers
// differ only in the KvShape; policies, alternate destinations, admission
// policies and runs without a migration stay at the call site, through
// testbed(), service() and episode_spec().
#pragma once

#include <memory>
#include <vector>

#include "core/service_episode.h"
#include "core/testbed.h"
#include "scenarios/counters.h"
#include "workloads/kv_service.h"

namespace nm::scenarios {

/// What one request costs a server, and the server VMs.
enum class KvProfile {
  /// 1.38 ms/op on 8 workers, 20 ms deadline, 40 % writes; 256 MiB VMs
  /// with a 96 MiB OS. At 2600 req/s per fleet a server takes 5,200
  /// replica ops/s against a capacity of 8/1.38 ms = 5,797, ~0.90 busy.
  /// Pre-copy burns up to ~2 source-host cores (dirty scan + sender
  /// thread), so the migrating server falls below the offered load and
  /// its open-loop backlog shows in the pre-copy tail.
  kHeavy,
  /// 1.0 ms/op on 4 workers, 15 ms deadline, 25 % writes; 192 MiB VMs with
  /// a 64 MiB OS.
  kLight,
};

struct KvShape {
  int servers = 2;
  KvProfile profile = KvProfile::kLight;
  double rate_per_fleet = 0.0;  // req/s
  /// How long the fleets offer load.
  Duration window;
  /// When the episode fires, after start().
  Duration migrate_at;
  /// One shard settles through the scheduler's zero-delay post; a second
  /// (empty) shard routes every settle through the SolvePool's end-of-instant
  /// batch. Both schedules are deterministic, but they can order
  /// same-nanosecond completion and arrival events differently, and every kv
  /// pin was taken on the pool path (DESIGN.md §10).
  int fluid_shards = 2;
};

/// examples/live_service and bench_gate's `policies` row: 4 servers under
/// 10,400 req/s for 10 s, kv0 migrated 2 s in.
inline constexpr KvShape kLiveService{.servers = 4,
                                      .profile = KvProfile::kHeavy,
                                      .rate_per_fleet = 2600.0,
                                      .window = Duration::seconds(10),
                                      .migrate_at = Duration::seconds(2)};

/// Builds the testbed, boots the servers, adds the fleets and settles.
class KvScenario {
 public:
  explicit KvScenario(const KvShape& shape);
  KvScenario(const KvScenario&) = delete;
  KvScenario& operator=(const KvScenario&) = delete;

  [[nodiscard]] core::Testbed& testbed() { return testbed_; }
  [[nodiscard]] workloads::KvService& service() { return service_; }
  [[nodiscard]] core::ServiceEpisode& episode() { return episode_; }

  /// kv0 to eth_host(servers), `migrate_at` after start(), its policies fed
  /// by the service's observations.
  [[nodiscard]] core::EpisodeSpec episode_spec();
  /// Starts the service, which classifies requests by the episode's phase,
  /// and then the episode. A run without a migration calls
  /// service().start() instead.
  void start(core::EpisodeSpec spec);
  /// Whether the episode finished with its blackout within the engine's
  /// max_downtime.
  [[nodiscard]] bool downtime_ok();
  [[nodiscard]] Counters counters() { return scenarios::counters(testbed_.net()); }

 private:
  KvShape shape_;
  core::Testbed testbed_;
  workloads::KvService service_;
  std::vector<std::shared_ptr<vmm::Vm>> servers_;
  core::ServiceEpisode episode_;
};

}  // namespace nm::scenarios
