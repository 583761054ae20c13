// Open-loop KV/RPC service running *on* the simulated cluster — the
// "millions of users" whose experience Ninja migration must not ruin.
//
// Server VMs host a replicated keyspace; client fleets (the outside world,
// attached at their hosts' Ethernet uplinks) generate Poisson arrivals with
// zipfian key popularity. Every request fans out to R replicas, and each
// replica operation is real traffic on the simulated fabric: a request
// transfer into the server VM's virtio NIC (through its vhost thread), a
// slice of guest compute (which stalls while the VM is paused for
// stop-and-copy), and a response transfer back out through the same NIC
// port migration traffic leaves on. Tail latency therefore inflates for
// exactly the physical reasons the paper cares about: CPU/bandwidth
// contention during pre-copy, a frozen guest during the blackout.
//
// The load is *open-loop*: arrivals do not wait for completions, so an
// overloaded phase accumulates backlog and the tail shows it (a closed
// loop would politely slow down and hide the damage). Determinism: each
// fleet pre-draws (inter-arrival, key) pairs from its own named
// Rng::streams and pins every arrival to an absolute instant via
// Simulation::post_at — the draw sequence is fixed by generation order, so
// timelines are reproducible bit for bit (see DESIGN.md §10).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "policy/policy.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"
#include "vmm/migration.h"

namespace nm::core {
class Testbed;
}  // namespace nm::core

namespace nm::vmm {
class Host;
class VirtioNetDevice;
class Vm;
}  // namespace nm::vmm

namespace nm::workloads {

struct KvServiceConfig {
  /// Keyspace size; zipfian popularity ranks are scattered over it so the
  /// hottest keys do not all share a primary server.
  std::uint64_t keys = 65536;
  /// Zipf skew exponent (s = 0.99 is the YCSB-style default).
  double zipf_s = 0.99;
  /// Fan-out: each read touches this many replicas (clamped to the server
  /// count). Replica r of key k lives on server (k + r) mod S.
  int replicas = 2;
  Bytes request_bytes = Bytes(512);
  Bytes response_bytes = Bytes::kib(4);
  /// Guest CPU time per replica operation (single-threaded core-seconds).
  double service_core_seconds = 200e-6;
  /// Worker threads per server VM: at most this many operations are in
  /// service concurrently; the rest queue FIFO. Bounded concurrency is
  /// both the realistic server model (a thread pool) and what keeps an
  /// overloaded phase cheap to simulate — queued requests are parked
  /// coroutines, not active fluid flows.
  int worker_threads = 16;
  /// Per-request deadline feeding the error budget (deadline_misses).
  Duration deadline = Duration::millis(25);
  /// Fraction of requests that are writes. A write applies at *every*
  /// replica (replicated store) and appends `value_bytes` of
  /// incompressible data to the server's in-guest commit log — the dirty
  /// rate the migration engine's pre-copy rounds must outrun, and the
  /// reason the stop-and-copy blackout is non-trivial under load.
  double write_fraction = 0.0;
  Bytes value_bytes = Bytes::kib(16);
  /// Commit-log region per server (starts past the OS footprint, wraps).
  Bytes log_bytes = Bytes::mib(512);
};

struct ClientFleetConfig {
  /// Names the fleet's private Rng streams ("kv/arrivals/<name>",
  /// "kv/keys/<name>"), so adding a fleet never perturbs another's draws.
  std::string name;
  /// Poisson arrival rate (requests per second of simulated time).
  double rate_per_sec = 2500.0;
  /// Generation window, measured from start(); arrivals stop after it
  /// (in-flight requests still drain to completion).
  Duration window = Duration::seconds(10);
};

/// Per-phase SLO bucket: latency distribution + error budget.
struct PhaseSlo {
  LatencyHistogram latency;
  std::uint64_t requests = 0;
  std::uint64_t deadline_misses = 0;
};

class KvService {
 public:
  KvService(core::Testbed& testbed, KvServiceConfig config);
  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  /// Registers a server VM (must have a virtio NIC, i.e. booted via
  /// Testbed::boot_vm). Call before start().
  void add_server(std::shared_ptr<vmm::Vm> vm);

  /// Registers a client fleet attached at `client_host`'s Ethernet uplink.
  /// Call before start().
  void add_fleet(vmm::Host& client_host, ClientFleetConfig config);

  /// Points the per-phase breakdown at a migration's *live* stats object
  /// (the `stats_out` handed to Host::migrate — mirrored mid-episode, so
  /// requests completing inside the pause classify as blackout). Multiple
  /// episodes may be observed; the most severe overlap wins.
  void observe_migration(const vmm::MigrationStats* live);

  /// Installs an admission-control PolicySet: its kAdmission hook is
  /// consulted at every arrival instant (a clocked event) and may shed the
  /// request before it touches the fabric. `seed` binds the policies' Rng
  /// streams. Without this call, every request is admitted — and the
  /// digest stays byte-identical to pre-policy builds.
  void set_admission(policy::PolicySet policies, std::uint64_t seed = 0);

  /// Spawns the fleet generators at the current simulated time.
  void start();

  [[nodiscard]] std::uint64_t generated() const { return generated_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  [[nodiscard]] std::uint64_t in_flight() const {
    return generated_ - completed_ - rejected_;
  }
  [[nodiscard]] std::uint64_t deadline_misses() const { return deadline_misses_; }

  [[nodiscard]] const PhaseSlo& phase(vmm::MigrationPhase p) const {
    return phases_[static_cast<std::size_t>(p)];
  }
  /// All phases merged (merge is associative, so this equals a histogram
  /// fed every sample directly).
  [[nodiscard]] LatencyHistogram overall() const;

  /// Deterministic digest over counters and every phase histogram; the
  /// determinism gates pin these by value. (The
  /// rejected counter folds in only when admission control actually shed
  /// something, so policy-free digests match pre-policy builds.)
  [[nodiscard]] std::uint64_t digest() const;

  /// The service's live SLO digest in the policy framework's vocabulary —
  /// the Observation half of the narrow API.
  [[nodiscard]] policy::SloSnapshot slo_snapshot() const;

  /// Observation callbacks for EpisodeSpec::observe / NinjaConfig::source:
  /// the policies see this service's live per-phase tails.
  [[nodiscard]] policy::ObservationSource observation_source() const;

 private:
  struct ServerState {
    std::shared_ptr<vmm::Vm> vm;
    vmm::VirtioNetDevice* device = nullptr;
    net::FabricAddress address = net::kInvalidAddress;
    Bytes log_head = Bytes::zero();  // append cursor within the log region
    std::unique_ptr<sim::Semaphore> workers;
  };
  struct FleetState {
    ClientFleetConfig config;
    net::AttachmentPtr attachment;
    net::FabricAddress address = net::kInvalidAddress;
  };

  [[nodiscard]] sim::Task fleet_task(FleetState* fleet);
  void start_request(FleetState* fleet, std::uint64_t key, bool is_write);
  [[nodiscard]] sim::Task request_task(FleetState* fleet, std::uint64_t key, bool is_write);
  [[nodiscard]] sim::Task replica_op(FleetState* fleet, ServerState* server, bool is_write);
  void append_log(ServerState* server);
  [[nodiscard]] std::uint64_t sample_zipf(Rng& rng) const;
  [[nodiscard]] vmm::MigrationPhase classify(TimePoint begin, TimePoint end) const;
  void record(TimePoint begin, TimePoint end);

  /// The observed episode whose phase at [now, now] is most severe (null
  /// when none observed) — what the admission Observation points at.
  [[nodiscard]] const vmm::MigrationStats* dominant_migration(TimePoint now) const;

  core::Testbed* testbed_;
  KvServiceConfig config_;
  std::vector<std::unique_ptr<ServerState>> servers_;
  std::vector<std::unique_ptr<FleetState>> fleets_;
  std::vector<const vmm::MigrationStats*> observed_;
  std::vector<double> zipf_cdf_;  // built at start()
  bool started_ = false;
  bool has_admission_ = false;
  policy::PolicySet admission_;

  std::uint64_t generated_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t deadline_misses_ = 0;
  std::array<PhaseSlo, vmm::kMigrationPhases> phases_;
};

}  // namespace nm::workloads
