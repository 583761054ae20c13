#include "workloads/kv_service.h"

#include <algorithm>
#include <cmath>

#include "core/testbed.h"
#include "util/error.h"
#include "vmm/device.h"
#include "vmm/host.h"
#include "vmm/vm.h"

namespace nm::workloads {

namespace {

/// Phase severity for multi-episode classification: a request that
/// overlapped any blackout is a blackout request, whatever else it saw.
[[nodiscard]] int severity(vmm::MigrationPhase p) {
  switch (p) {
    case vmm::MigrationPhase::kBlackout:
      return 3;
    case vmm::MigrationPhase::kPreCopy:
      return 2;
    case vmm::MigrationPhase::kPost:
      return 1;
    case vmm::MigrationPhase::kSteady:
      return 0;
  }
  return 0;
}

/// Odd multiplier (golden-ratio constant): scatters popularity ranks over
/// the keyspace so the hottest keys spread across primaries.
inline constexpr std::uint64_t kRankScatter = 0x9e3779b97f4a7c15ull;

/// Arrivals a fleet pre-draws and posts (via post_at) per generator
/// wake-up, so the generator resumes once per batch rather than once per
/// arrival. The arrival instants do not depend on it; the order in which
/// arrivals draw queue sequence numbers does, and pinned outputs assume 256.
inline constexpr int kArrivalBatch = 256;

}  // namespace

KvService::KvService(core::Testbed& testbed, KvServiceConfig config)
    : testbed_(&testbed), config_(config) {
  NM_CHECK(config_.keys > 0, "KvService needs a non-empty keyspace");
  NM_CHECK(config_.replicas >= 1, "KvService needs at least one replica");
  NM_CHECK(config_.zipf_s >= 0.0, "negative zipf exponent");
  NM_CHECK(config_.service_core_seconds >= 0.0, "negative service time");
  NM_CHECK(config_.write_fraction >= 0.0 && config_.write_fraction <= 1.0,
           "write fraction outside [0, 1]");
  NM_CHECK(config_.write_fraction == 0.0 || !config_.value_bytes.is_zero(),
           "writes need a non-zero value size");
  NM_CHECK(config_.worker_threads > 0, "KvService needs at least one worker thread");
}

void KvService::add_server(std::shared_ptr<vmm::Vm> vm) {
  NM_CHECK(vm != nullptr, "KvService::add_server(nullptr)");
  NM_CHECK(!started_, "KvService::add_server after start()");
  auto* dev = vm->find_device_by_kind("virtio-net");
  NM_CHECK(dev != nullptr, "KV server " << vm->name() << " has no virtio NIC");
  auto state = std::make_unique<ServerState>();
  state->device = static_cast<vmm::VirtioNetDevice*>(dev);
  state->address = state->device->attachment()->address();
  state->workers = std::make_unique<sim::Semaphore>(
      vm->simulation(), static_cast<std::size_t>(config_.worker_threads));
  state->vm = std::move(vm);
  servers_.push_back(std::move(state));
}

void KvService::add_fleet(vmm::Host& client_host, ClientFleetConfig config) {
  NM_CHECK(!started_, "KvService::add_fleet after start()");
  NM_CHECK(!config.name.empty(), "client fleet needs a name (it keys the Rng streams)");
  NM_CHECK(config.rate_per_sec > 0.0, "fleet " << config.name << ": non-positive rate");
  auto state = std::make_unique<FleetState>();
  state->attachment = client_host.eth_attachment();
  NM_CHECK(state->attachment != nullptr,
           "client host " << client_host.name() << " has no Ethernet uplink");
  state->address = state->attachment->address();
  state->config = std::move(config);
  fleets_.push_back(std::move(state));
}

void KvService::observe_migration(const vmm::MigrationStats* live) {
  NM_CHECK(live != nullptr, "KvService::observe_migration(nullptr)");
  observed_.push_back(live);
}

void KvService::set_admission(policy::PolicySet policies, std::uint64_t seed) {
  policies.bind_seed(seed);
  admission_ = std::move(policies);
  has_admission_ = true;
}

void KvService::start() {
  NM_CHECK(!started_, "KvService::start called twice");
  NM_CHECK(!servers_.empty(), "KvService::start with no servers");
  NM_CHECK(!fleets_.empty(), "KvService::start with no client fleets");
  started_ = true;

  // Zipf CDF over popularity ranks: weight(r) = 1 / (r+1)^s.
  zipf_cdf_.resize(config_.keys);
  double total = 0.0;
  for (std::uint64_t r = 0; r < config_.keys; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), config_.zipf_s);
    zipf_cdf_[r] = total;
  }
  for (auto& c : zipf_cdf_) {
    c /= total;
  }
  zipf_cdf_.back() = 1.0;

  auto& sim = testbed_->sim();
  for (auto& fleet : fleets_) {
    (void)sim.spawn(fleet_task(fleet.get()), "kv-fleet:" + fleet->config.name);
  }
}

std::uint64_t KvService::sample_zipf(Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  auto rank = static_cast<std::uint64_t>(it - zipf_cdf_.begin());
  rank = std::min<std::uint64_t>(rank, config_.keys - 1);
  return (rank * kRankScatter) % config_.keys;
}

sim::Task KvService::fleet_task(FleetState* fleet) {
  auto& sim = testbed_->sim();
  // Private named streams: draws happen in pure generation order, so the
  // arrival sequence cannot depend on how request tasks interleave.
  Rng arrivals = sim.make_rng("kv/arrivals/" + fleet->config.name);
  Rng keys = sim.make_rng("kv/keys/" + fleet->config.name);
  Rng writes = sim.make_rng("kv/writes/" + fleet->config.name);
  const double rate = fleet->config.rate_per_sec;
  const TimePoint window_end = sim.now() + fleet->config.window;

  while (true) {
    const TimePoint batch_start = sim.now();
    Duration offset = Duration::zero();
    bool window_over = false;
    for (int i = 0; i < kArrivalBatch; ++i) {
      const double u = arrivals.next_double();
      offset += Duration::seconds(-std::log1p(-u) / rate);
      if (batch_start + offset >= window_end) {
        window_over = true;
        break;
      }
      const std::uint64_t key = sample_zipf(keys);
      const bool is_write = writes.bernoulli(config_.write_fraction);
      FleetState* f = fleet;
      sim.post_at(batch_start + offset,
                  [this, f, key, is_write] { start_request(f, key, is_write); });
    }
    if (window_over) {
      break;
    }
    co_await sim.delay(offset);
  }
}

const vmm::MigrationStats* KvService::dominant_migration(TimePoint now) const {
  const vmm::MigrationStats* best = nullptr;
  int best_severity = -1;
  for (const auto* m : observed_) {
    const int s = severity(m->phase_of(now, now));
    if (s > best_severity) {
      best_severity = s;
      best = m;
    }
  }
  return best;
}

void KvService::start_request(FleetState* fleet, std::uint64_t key, bool is_write) {
  ++generated_;
  if (has_admission_) {
    // Arrival instants are clocked (pre-drawn and posted by the fleets),
    // so an admission decision here is deterministic.
    policy::Observation obs;
    obs.now = testbed_->sim().now();
    obs.migration = dominant_migration(obs.now);
    obs.slo = slo_snapshot();
    if (admission_.decide(policy::Hook::kAdmission, obs).reject) {
      ++rejected_;  // fast-fail: never touches the fabric or a worker
      return;
    }
  }
  (void)testbed_->sim().spawn(request_task(fleet, key, is_write));
}

sim::Task KvService::request_task(FleetState* fleet, std::uint64_t key, bool is_write) {
  auto& sim = testbed_->sim();
  const TimePoint begin = sim.now();
  const std::size_t n = servers_.size();
  const auto primary = static_cast<std::size_t>(key % n);
  const auto fanout =
      static_cast<std::size_t>(std::min<std::uint64_t>(config_.replicas, n));

  // Fan out to the non-primary replicas in parallel; serve the primary on
  // this task's own frame (one fewer spawn per request).
  std::vector<sim::TaskRef> others;
  others.reserve(fanout - 1);
  for (std::size_t r = 1; r < fanout; ++r) {
    others.push_back(
        sim.spawn(replica_op(fleet, servers_[(primary + r) % n].get(), is_write)));
  }
  co_await replica_op(fleet, servers_[primary].get(), is_write);
  for (auto& op : others) {
    co_await op.completion().wait();
  }
  record(begin, sim.now());
}

sim::Task KvService::replica_op(FleetState* fleet, ServerState* server, bool is_write) {
  auto& fabric = server->device->fabric();
  // Request into the server: small, but still funnels through the server
  // VM's vhost thread (the attachment's rx shares) and burns guest CPU.
  net::TransferOptions request_opts;
  request_opts.dst_cpu_per_byte = server->device->costs().guest_cpu_per_byte;
  co_await fabric.transfer(fleet->attachment, server->address, config_.request_bytes,
                           request_opts);
  // Queue for a worker thread (FIFO). An overloaded or paused server backs
  // requests up right here — queue wait is the tail-latency signal.
  co_await server->workers->acquire();
  // Service time: guest compute under host contention; stalls entirely
  // while the VM is paused for stop-and-copy (the blackout story).
  co_await server->vm->compute(config_.service_core_seconds);
  if (is_write) {
    append_log(server);
  }
  // Response back out through the virtio path — the same host NIC port
  // migration traffic leaves on, so pre-copy and responses compete. The
  // worker is held until the response is on the wire.
  net::TransferOptions response_opts = server->device->transfer_options();
  co_await fabric.transfer(server->device->attachment(), fleet->address,
                           config_.response_bytes, response_opts);
  server->workers->release();
}

void KvService::append_log(ServerState* server) {
  // Writes land in an append-only commit log past the OS footprint: the
  // dirty set stays contiguous (interval-map friendly) and incompressible
  // (kData), exactly what a real WAL does to pre-copy.
  const auto& spec = server->vm->spec();
  const Bytes base = spec.base_os_footprint;
  NM_CHECK(spec.memory > base, "KV server " << spec.name << " has no room past the OS");
  const Bytes region = std::min(config_.log_bytes, spec.memory - base);
  const Bytes value = std::min(config_.value_bytes, region);
  if (server->log_head + value > region) {
    server->log_head = Bytes::zero();  // wrap
  }
  server->vm->memory().write_data(base + server->log_head, value);
  server->log_head += value;
}

vmm::MigrationPhase KvService::classify(TimePoint begin, TimePoint end) const {
  auto best = vmm::MigrationPhase::kSteady;
  for (const auto* m : observed_) {
    const auto p = m->phase_of(begin, end);
    if (severity(p) > severity(best)) {
      best = p;
    }
  }
  return best;
}

void KvService::record(TimePoint begin, TimePoint end) {
  ++completed_;
  const Duration latency = end - begin;
  auto& slo = phases_[static_cast<std::size_t>(classify(begin, end))];
  ++slo.requests;
  slo.latency.add(latency);
  if (latency > config_.deadline) {
    ++slo.deadline_misses;
    ++deadline_misses_;
  }
}

LatencyHistogram KvService::overall() const {
  LatencyHistogram all;
  for (const auto& slo : phases_) {
    all.merge(slo.latency);
  }
  return all;
}

std::uint64_t KvService::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 0x100000001b3ull;
    }
  };
  fold(generated_);
  fold(completed_);
  fold(deadline_misses_);
  // Folded only when admission control shed something: digests of
  // policy-free runs stay byte-identical to pre-policy builds.
  if (rejected_ != 0) {
    fold(rejected_);
  }
  for (const auto& slo : phases_) {
    fold(slo.requests);
    fold(slo.deadline_misses);
    h = slo.latency.digest(h);
  }
  return h;
}

policy::SloSnapshot KvService::slo_snapshot() const {
  policy::SloSnapshot snap;
  snap.valid = true;
  snap.generated = generated_;
  snap.completed = completed_;
  snap.in_flight = in_flight();
  snap.deadline_misses = deadline_misses_;
  snap.deadline = config_.deadline;
  for (int p = 0; p < vmm::kMigrationPhases; ++p) {
    const auto& slo = phases_[static_cast<std::size_t>(p)];
    auto& view = snap.phases[static_cast<std::size_t>(p)];
    view.requests = slo.requests;
    view.deadline_misses = slo.deadline_misses;
    if (slo.latency.count() > 0) {  // percentile() checks non-empty
      view.p50 = slo.latency.percentile(0.5);
      view.p99 = slo.latency.percentile(0.99);
      view.p999 = slo.latency.percentile(0.999);
    }
  }
  return snap;
}

policy::ObservationSource KvService::observation_source() const {
  policy::ObservationSource source;
  source.slo = [this] { return slo_snapshot(); };
  source.now = [this] { return testbed_->sim().now(); };
  return source;
}

}  // namespace nm::workloads
