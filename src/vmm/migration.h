// QEMU 1.1-style pre-copy live migration engine.
//
// Modelled behaviours (each one is observable in the paper's data):
//   - dirty-page logging starts with *all* pages dirty, so the first round
//     traverses the whole guest memory (Fig 6: migration time is dominated
//     by the 20 GiB scan even for a 2 GiB workload footprint);
//   - `is_dup_page` compression ships uniform pages as 9-byte markers
//     (memtest patterns compress; NPB data does not);
//   - the sender is a single thread: scanning and TCP transmission are
//     sequential work on one core, capping throughput near 1.3 Gb/s on a
//     10 GbE link (paper §V);
//   - iterative rounds continue until the estimated stop-and-copy downtime
//     drops below max_downtime (or a round cap), then the VM pauses for the
//     final copy and resumes on the destination.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string_view>

#include "sim/task.h"
#include "util/units.h"

namespace nm::vmm {

class Host;
class Vm;

struct MigrationConfig {
  /// CPU-bound TCP send rate of the single migration thread (bytes/s).
  double thread_send_rate = Bandwidth::gbps(1.3).bytes_per_second();
  /// Rate at which the thread walks pages and runs is_dup_page (bytes/s).
  Bandwidth scan_rate = Bandwidth::mib_per_sec(700);
  Duration max_downtime = Duration::millis(30);
  int max_rounds = 30;
  bool compress_dup_pages = true;
  /// Scan/send granularity (pages); smaller = finer interleaving.
  std::uint64_t chunk_pages = 65536;  // 256 MiB
  /// Fixed device-state + handshake overhead.
  Duration setup_time = Duration::millis(200);
  /// RDMA-based migration (paper §V optimization): bypasses the TCP send
  /// path — no per-byte CPU charge and no thread rate cap (line rate).
  bool use_rdma = false;
  /// Administrative bandwidth cap (QEMU `migrate_set_speed`); applied on
  /// top of the thread/CPU limits. Infinite by default.
  double max_bandwidth = std::numeric_limits<double>::infinity();

  /// Per-stream send rate, bytes/s: the administrative cap over RDMA, the
  /// thread's TCP send rate under that cap otherwise.
  [[nodiscard]] double send_rate() const {
    return use_rdma ? max_bandwidth : std::min(thread_send_rate, max_bandwidth);
  }
};

/// A VM image saved to shared storage (proactive fault tolerance, paper
/// §II: "we can restart VMs on an Ethernet cluster from checkpointed VM
/// images on an Infiniband cluster").
struct CheckpointStats {
  Bytes image_bytes = Bytes::zero();  // compressed image on the store
  Bytes scanned = Bytes::zero();
  Duration total = Duration::zero();
};

/// Which phase of a migration a request (or any interval of service time)
/// experienced — the key the service layer's per-phase SLO breakdown is
/// keyed on. kBlackout dominates: any overlap with the stop-and-copy pause
/// is the user-visible worst case, however long the rest of the interval.
enum class MigrationPhase {
  kSteady,    // no overlap with the episode (or no episode yet)
  kPreCopy,   // overlapped the iterative pre-copy (bandwidth/CPU contention)
  kBlackout,  // overlapped the stop-and-copy pause
  kPost,      // began at/after completion (the recovered service)
};
inline constexpr int kMigrationPhases = 4;
[[nodiscard]] std::string_view to_string(MigrationPhase phase);

struct MigrationStats {
  bool in_progress = false;
  int rounds = 0;
  Bytes scanned = Bytes::zero();       // guest bytes walked
  Bytes wire_bytes = Bytes::zero();    // bytes on the network
  Bytes dup_pages_saved = Bytes::zero();  // payload avoided by compression
  Duration total = Duration::zero();
  Duration downtime = Duration::zero();  // stop-and-copy pause
  /// When the VM paused for stop-and-copy; origin() until the blackout
  /// starts. A live reader can derive the in-progress pause as
  /// `now - pause_at` while `in_progress && pause_at != origin()`.
  TimePoint pause_at = TimePoint::origin();
  /// Migration start / completion instants (end_at stays origin() while
  /// in_progress) — evacuation reports aggregate these into per-VM
  /// timelines without having to wrap every migrate() call.
  TimePoint start_at = TimePoint::origin();
  TimePoint end_at = TimePoint::origin();

  /// Classifies the lifetime [begin, end] of one request against this
  /// episode's phase boundaries, readable mid-episode from the *live*
  /// stats object (`migrate`'s stats_out is mirrored on every chunk):
  ///   - overlap with the stop-and-copy pause (still open while the VM is
  ///     paused)                              -> kBlackout,
  ///   - else overlap with [start_at, pause)  -> kPreCopy,
  ///   - else begin at/after end_at           -> kPost,
  ///   - else (episode not started / interval fully before it) -> kSteady.
  [[nodiscard]] MigrationPhase phase_of(TimePoint begin, TimePoint end) const;
};

/// Clocked decision callbacks a policy layer injects into migrate() —
/// the actuation half of the policy:: framework's narrow API, kept down
/// here as plain std::functions so vmm stays below policy in the layering.
/// Every member is optional; a null member (or a null control pointer)
/// reproduces the legacy loop byte-for-byte. Callbacks run from the
/// migration task at clocked instants and must be pure reads — they may
/// not block or touch simulation state.
struct MigrationControl {
  /// Before pre-copy round `round` (0-based): extra bandwidth cap for that
  /// round's drain (bytes/s; min'd with the administrative and per-call
  /// caps). The downtime estimator and the stop-and-copy drain are NOT
  /// subject to it — a throttle shapes pre-copy interference, never the
  /// blackout.
  std::function<double(const MigrationStats& live, int round)> precopy_cap;
  /// After a round whose downtime estimate does not fit yet: force
  /// stop-and-copy now anyway (accepting downtime > max_downtime).
  std::function<bool(const MigrationStats& live, int round)> force_stop;
  /// When the estimate finally fits: pause now (true) or run another
  /// pre-copy round first (false)? Deferral is still bounded by the round
  /// cap, so a policy cannot postpone the blackout forever.
  std::function<bool(const MigrationStats& live, Duration estimated_downtime)> allow_pause;
};

class MigrationEngine {
 public:
  explicit MigrationEngine(MigrationConfig config) : config_(config) {}

  [[nodiscard]] const MigrationConfig& config() const { return config_; }
  void set_config(const MigrationConfig& config) { config_ = config; }

  /// Migrates `vm` from `src` to `dst`. Throws OperationError when the
  /// preconditions fail (different shared storage, VMM-bypass device still
  /// attached, VM not resident on src). `stats_out` is optional.
  /// `bandwidth_cap` is a per-call rate cap (bytes/s) min'd with the
  /// engine's max_bandwidth — evacuation planners pin each migration to
  /// its planned share so concurrent waves cannot oversubscribe a WAN
  /// edge (and the downtime estimator sees the rate it will actually get).
  /// `control` optionally routes the loop's clocked decision points
  /// (per-round cap, pause instant, forced stop) through a policy; null
  /// keeps the legacy loop byte-for-byte. The pointee must outlive the
  /// migration task.
  [[nodiscard]] sim::Task migrate(
      Vm& vm, Host& src, Host& dst, MigrationStats* stats_out = nullptr,
      double bandwidth_cap = std::numeric_limits<double>::infinity(),
      const MigrationControl* control = nullptr);

  /// Checkpoints `vm` to the shared store: the VM is paused, its memory is
  /// scanned (dup pages compress) and the image written out; the VM is
  /// then *off* (not resident anywhere) until restored.
  [[nodiscard]] sim::Task checkpoint_to_storage(std::shared_ptr<Vm> vm, Host& src,
                                                CheckpointStats* stats_out = nullptr);

  /// Restores a checkpointed VM onto `dst` (may be in a different cluster
  /// — that is the point): reads the image back and resumes the guest.
  [[nodiscard]] sim::Task restore_from_storage(std::shared_ptr<Vm> vm, Host& dst,
                                               CheckpointStats* stats_out = nullptr);

  /// Image registered for a checkpointed (currently off) VM, if any.
  [[nodiscard]] bool has_image(const Vm& vm) const;

 private:
  /// Ships every currently-dirty page; accumulates stats. When `live` is
  /// non-null, mirrors the accumulated stats into it after every chunk so
  /// an `info migrate`-style reader sees wire progress mid-drain (the
  /// stop-and-copy blackout would otherwise look frozen).
  [[nodiscard]] sim::Task drain_dirty(Vm& vm, Host& src, Host& dst, MigrationStats& stats,
                                      MigrationStats* live, double max_bandwidth);

  MigrationConfig config_;
  std::map<const Vm*, Bytes> images_;  // checkpointed image sizes
};

}  // namespace nm::vmm
