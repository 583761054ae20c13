#include "vmm/migration.h"

#include <algorithm>

#include "util/log.h"
#include "vmm/host.h"
#include "vmm/vm.h"

namespace nm::vmm {

std::string_view to_string(MigrationPhase phase) {
  switch (phase) {
    case MigrationPhase::kSteady:
      return "steady";
    case MigrationPhase::kPreCopy:
      return "pre-copy";
    case MigrationPhase::kBlackout:
      return "blackout";
    case MigrationPhase::kPost:
      return "post";
  }
  return "?";
}

MigrationPhase MigrationStats::phase_of(TimePoint begin, TimePoint end) const {
  if (start_at == TimePoint::origin() && !in_progress) {
    return MigrationPhase::kSteady;  // no episode observed yet
  }
  if (pause_at != TimePoint::origin()) {
    // The blackout interval is [pause_at, pause_at + downtime]; while the
    // VM is still paused (in_progress with no recorded downtime yet) it is
    // open-ended, so anything completing now overlaps it.
    const TimePoint blackout_end =
        in_progress ? TimePoint::max() : pause_at + downtime;
    if (end >= pause_at && begin <= blackout_end) {
      return MigrationPhase::kBlackout;
    }
  }
  // Pre-copy runs from episode start until the pause (or until now while
  // no pause has happened yet).
  const TimePoint precopy_end = pause_at != TimePoint::origin() ? pause_at
                                : in_progress                   ? TimePoint::max()
                                                                : end_at;
  if (end >= start_at && begin <= precopy_end) {
    return MigrationPhase::kPreCopy;
  }
  if (!in_progress && end_at != TimePoint::origin() && begin >= end_at) {
    return MigrationPhase::kPost;
  }
  return MigrationPhase::kSteady;
}

sim::Task MigrationEngine::migrate(Vm& vm, Host& src, Host& dst, MigrationStats* stats_out,
                                   double bandwidth_cap, const MigrationControl* control) {
  // --- Preconditions (what QEMU would refuse / what the paper works
  // around with SymVirt + hotplug) --------------------------------------
  if (!src.resident(vm)) {
    throw OperationError("migrate: " + vm.name() + " is not resident on " + src.name());
  }
  if (vm.has_vmm_bypass_device()) {
    throw OperationError("migrate: " + vm.name() +
                         " has a VMM-bypass device attached; detach it first "
                         "(this is exactly why Ninja migration hot-unplugs the HCA)");
  }
  if (&src.storage() != &dst.storage()) {
    throw OperationError("migrate: " + src.name() + " and " + dst.name() +
                         " do not share storage (live migration needs shared disks)");
  }

  auto& sim = src.simulation();
  const TimePoint t0 = sim.now();
  // The per-call cap composes with the administrative one (both are hard
  // ceilings, so the tighter wins everywhere the engine plans or sends).
  const double max_bandwidth = std::min(config_.max_bandwidth, bandwidth_cap);
  MigrationStats stats;
  stats.in_progress = true;
  stats.start_at = t0;
  if (stats_out != nullptr) {
    *stats_out = stats;  // live progress for `info migrate`
  }
  auto& mem = vm.memory();
  const bool was_running = vm.running();

  NM_LOG_INFO("migration") << vm.name() << ": " << src.name() << " -> " << dst.name()
                           << " starting (memory " << mem.size() << ")";

  co_await sim.delay(config_.setup_time);
  mem.start_dirty_logging();  // marks everything dirty

  // --- Iterative pre-copy ----------------------------------------------
  while (true) {
    // A policy may throttle *this round's* drain; the downtime estimator
    // and the stop-and-copy drain below stay at the uncapped rate (the
    // throttle shapes pre-copy interference, never the blackout).
    double round_cap = max_bandwidth;
    if (control != nullptr && control->precopy_cap) {
      round_cap = std::min(round_cap, control->precopy_cap(stats, stats.rounds));
    }
    ++stats.rounds;
    co_await drain_dirty(vm, src, dst, stats, stats_out, round_cap);
    if (stats_out != nullptr) {
      *stats_out = stats;
    }

    const Bytes remaining_wire = mem.dirty_wire_size(config_.compress_dup_pages);
    // The stop-and-copy estimate must not exceed what the wire can carry:
    // even the CPU-bound TCP sender is capped by the path when the link is
    // slower than the thread (and RDMA always runs at path rate). The path
    // rate is the fabric's planning rate to the destination — for a
    // cross-site destination that folds in the WAN's *effective* (RTT/loss
    // model) rate, not the raw line rate; a model-blind estimate is
    // optimistic on lossy links, so the loop would stop pre-copying early
    // and blow through max_downtime.
    const double path_rate =
        src.eth_fabric().path_rate(src.eth_attachment(), dst.eth_attachment()->address());
    const double est_rate = std::min({max_bandwidth, path_rate, config_.send_rate()});
    // est_rate can hit 0 on a partitioned WAN path; treat the estimate as
    // unbounded (keep pre-copying — the drain itself stalls until heal)
    // instead of overflowing Duration.
    if (est_rate > 0.0 &&
        static_cast<double>(remaining_wire.count()) / est_rate <=
            config_.max_downtime.to_seconds()) {
      // The estimate fits; a policy may still defer the pause (wait for a
      // quieter instant), bounded by the round cap.
      if (control != nullptr && control->allow_pause && stats.rounds < config_.max_rounds) {
        const Duration est_downtime = Duration::seconds(
            static_cast<double>(remaining_wire.count()) / est_rate);
        if (!control->allow_pause(stats, est_downtime)) {
          continue;
        }
      }
      break;
    }
    if (stats.rounds >= config_.max_rounds) {
      NM_LOG_WARN("migration") << vm.name() << ": round cap hit with " << remaining_wire
                               << " still dirty; forcing stop-and-copy";
      break;
    }
    if (control != nullptr && control->force_stop &&
        control->force_stop(stats, stats.rounds)) {
      NM_LOG_WARN("migration") << vm.name() << ": policy forced stop-and-copy with "
                               << remaining_wire << " still dirty";
      break;
    }
  }

  // --- Stop-and-copy -----------------------------------------------------
  const TimePoint pause_at = sim.now();
  vm.pause();
  stats.pause_at = pause_at;
  if (stats_out != nullptr) {
    *stats_out = stats;  // readers see the blackout start immediately
  }
  co_await drain_dirty(vm, src, dst, stats, stats_out, max_bandwidth);
  mem.stop_dirty_logging();

  // Re-home the VM: storage is shared, the virtio NIC re-binds and keeps
  // its address. (Self-migration re-homes onto the same node.)
  if (&src != &dst) {
    auto owned = src.evict(vm);
    dst.adopt(owned);
    vm.set_host(dst);
  }
  if (was_running) {
    vm.resume();
  }
  stats.downtime = sim.now() - pause_at;
  stats.total = sim.now() - t0;
  stats.end_at = sim.now();
  stats.in_progress = false;

  NM_LOG_INFO("migration") << vm.name() << ": done in " << stats.total << " ("
                           << stats.rounds << " rounds, " << stats.wire_bytes << " on wire, "
                           << stats.downtime << " downtime)";
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
}

sim::Task MigrationEngine::checkpoint_to_storage(std::shared_ptr<Vm> vm, Host& src,
                                                 CheckpointStats* stats_out) {
  NM_CHECK(vm != nullptr, "checkpoint of null VM");
  if (!src.resident(*vm)) {
    throw OperationError("checkpoint: " + vm->name() + " is not resident on " + src.name());
  }
  if (vm->has_vmm_bypass_device()) {
    throw OperationError("checkpoint: " + vm->name() +
                         " has a VMM-bypass device attached; detach it first");
  }
  auto& sim = src.simulation();
  const TimePoint t0 = sim.now();
  CheckpointStats stats;
  auto& mem = vm->memory();

  vm->pause();
  // Scan the whole guest memory (dup pages compress) and stream the image
  // to the shared store.
  const GuestMemory::PageRange all{0, mem.page_count()};
  stats.scanned = mem.size();
  stats.image_bytes = mem.wire_size(all, config_.compress_dup_pages);
  const double scan_core_seconds =
      static_cast<double>(mem.size().count()) / config_.scan_rate.bytes_per_second();
  co_await src.node().compute(scan_core_seconds);
  co_await src.storage().write(src.node(), stats.image_bytes);

  // The VM is now off: not resident anywhere until restored.
  (void)src.evict(*vm);
  images_[vm.get()] = stats.image_bytes;
  stats.total = sim.now() - t0;
  NM_LOG_INFO("migration") << vm->name() << ": checkpointed to " << src.storage().name()
                           << " (" << stats.image_bytes << " image) in " << stats.total;
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
}

sim::Task MigrationEngine::restore_from_storage(std::shared_ptr<Vm> vm, Host& dst,
                                                CheckpointStats* stats_out) {
  NM_CHECK(vm != nullptr, "restore of null VM");
  auto it = images_.find(vm.get());
  if (it == images_.end()) {
    throw OperationError("restore: no checkpointed image for " + vm->name());
  }
  auto& sim = dst.simulation();
  const TimePoint t0 = sim.now();
  CheckpointStats stats;
  stats.image_bytes = it->second;

  co_await dst.storage().read(dst.node(), stats.image_bytes);
  images_.erase(it);
  dst.adopt(vm);
  vm->set_host(dst);
  vm->resume();
  stats.total = sim.now() - t0;
  NM_LOG_INFO("migration") << vm->name() << ": restored on " << dst.name() << " in "
                           << stats.total;
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
}

bool MigrationEngine::has_image(const Vm& vm) const { return images_.contains(&vm); }

sim::Task MigrationEngine::drain_dirty(Vm& vm, Host& src, Host& dst, MigrationStats& stats,
                                       MigrationStats* live, double max_bandwidth) {
  auto& mem = vm.memory();
  // Self-migration (Table II's micro-benchmark): a fresh QEMU on the same
  // node receives over loopback — no fabric, but the sender thread still
  // pays its CPU-bound transmission cost.
  const bool loopback = (&src == &dst);
  auto src_att = src.eth_attachment();
  const auto dst_addr = dst.eth_attachment()->address();

  // One pass over the dirty set as it stood at round start: pages dirtied
  // while this round transfers are the *next* round's work (otherwise a
  // fast-dirtying guest would trap us in an unbounded first round).
  auto snapshot = mem.take_dirty_snapshot();
  while (true) {
    const auto popped = snapshot.pop_front(config_.chunk_pages);
    const GuestMemory::PageRange range{popped.lo, popped.hi};
    if (range.empty()) {
      break;
    }
    const Bytes chunk = range.bytes();
    const Bytes wire = mem.wire_size(range, config_.compress_dup_pages);
    stats.scanned += chunk;
    stats.wire_bytes += wire;
    stats.dup_pages_saved += Bytes(range.pages() * kPageWireBytes) - wire;

    // Phase 1: the migration thread walks the pages (is_dup_page + header
    // assembly). Single-threaded: at most one core.
    const double scan_core_seconds =
        static_cast<double>(chunk.count()) / config_.scan_rate.bytes_per_second();
    co_await src.node().compute(scan_core_seconds);

    // Phase 2: the same thread pushes the chunk through TCP (or RDMA).
    if (loopback) {
      co_await src.node().compute(
          static_cast<double>(wire.count()) /
          std::min(config_.thread_send_rate, max_bandwidth));
    } else {
      net::TransferOptions opts;
      opts.max_rate = max_bandwidth;
      if (!config_.use_rdma) {
        opts.max_rate = std::min(opts.max_rate, config_.thread_send_rate);
        // Sending at the cap keeps one core busy.
        opts.src_cpu_per_byte = 1.0 / config_.thread_send_rate;
      }
      co_await src.eth_fabric().transfer(src_att, dst_addr, wire, opts);
    }
    if (live != nullptr) {
      *live = stats;  // chunk landed: publish wire progress mid-drain
    }
  }
}

}  // namespace nm::vmm
