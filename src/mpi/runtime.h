// nMPI: the mini Open-MPI-like runtime the paper's mechanism lives in.
// One MpiRuntime per job; one Rank per MPI process (a guest task on some
// VM). Point-to-point is blocking-synchronous with tag matching; every
// entry into the library is a checkpoint-service point, which is how the
// CRCP coordination interrupts the application at MPI-safe points.
#pragma once

#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "guestos/drivers.h"
#include "guestos/guest_os.h"
#include "mpi/btl.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/units.h"

namespace nm::mpi {

class MpiRuntime;
class CrService;

inline constexpr RankId kAnySource = std::numeric_limits<RankId>::min();
inline constexpr int kAnyTag = std::numeric_limits<int>::min();

struct MessageInfo {
  RankId src = kAnySource;
  int tag = kAnyTag;
  Bytes bytes = Bytes::zero();
  /// Opaque token carried with the message (tests verify no loss/dup).
  std::uint64_t token = 0;
};

/// A nonblocking-operation handle (isend/irecv). Completion is observed
/// with MpiRuntime::wait / wait_all (which are checkpoint-safe).
class Request {
 public:
  [[nodiscard]] bool complete() const { return complete_; }
  /// For receive requests: the matched envelope (valid once complete).
  [[nodiscard]] const MessageInfo& info() const { return info_; }

 private:
  friend class MpiRuntime;
  enum class Kind { kSend, kRecv };
  Kind kind = Kind::kSend;
  RankId owner = 0;
  RankId src_filter = kAnySource;  // recv matching
  int tag_filter = kAnyTag;
  bool complete_ = false;
  MessageInfo info_;
};

using RequestPtr = std::shared_ptr<Request>;

/// One MPI process.
class Rank {
 public:
  Rank(MpiRuntime& runtime, RankId id, guest::GuestOs& os);
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  [[nodiscard]] RankId id() const { return id_; }
  [[nodiscard]] guest::GuestOs& os() { return *os_; }
  [[nodiscard]] vmm::Vm& vm() { return os_->vm(); }
  [[nodiscard]] guest::IbVerbsDriver& ib_driver() { return ib_driver_; }
  [[nodiscard]] guest::VirtioNetDriver& eth_driver() { return eth_driver_; }

  // --- Transport stack ---------------------------------------------------
  /// Component init: builds one module per usable transport, re-running
  /// the exclusivity selection against the devices the VM has *now*.
  void build_btls();
  void teardown_btls();
  [[nodiscard]] bool has_invalid_btl() const;
  /// OPAL CRS pre-checkpoint: release InfiniBand resources.
  void release_ib_resources();
  /// Highest-exclusivity module that can reach `peer`; null if none.
  [[nodiscard]] BtlModule* select_btl(const ModexEntry& peer);
  [[nodiscard]] std::vector<std::string> btl_names() const;

  /// This rank's own modex payload, from its current devices.
  [[nodiscard]] ModexEntry make_modex_entry() const;
  void set_peers(std::vector<ModexEntry> peers) { peers_ = std::move(peers); }
  [[nodiscard]] const ModexEntry& peer(RankId r) const;
  /// Transport this rank would use towards `peer_rank` (diagnostics).
  [[nodiscard]] std::string transport_to(RankId peer_rank);

  // --- Wakeups -------------------------------------------------------------
  [[nodiscard]] auto wait_notify() { return notifier_.wait(); }
  void notify() { notifier_.notify_all(); }

  /// Last checkpoint request this rank has participated in (CrService).
  std::uint64_t cr_generation = 0;

 private:
  MpiRuntime* runtime_;
  RankId id_;
  guest::GuestOs* os_;
  guest::IbVerbsDriver ib_driver_;
  guest::VirtioNetDriver eth_driver_;
  std::vector<std::unique_ptr<BtlModule>> modules_;
  std::vector<ModexEntry> peers_;  // this rank's snapshot of the modex
  sim::Notifier notifier_;
};

/// Job options (the paper runs with "--mca mpi_leave_pinned 0 -am
/// ft-enable-cr" and sets ompi_cr_continue_like_restart).
struct MpiOptions {
  /// "-am ft-enable-cr": the checkpoint/restart stack is armed.
  bool ft_enable_cr = false;
  /// "ompi_cr_continue_like_restart": force BTL reconstruction on every
  /// continue, even when the surviving modules still look valid — the
  /// paper needs this so a *recovery* migration picks InfiniBand back up.
  bool continue_like_restart = false;
  /// Messages at or below this size use the eager protocol: the sender
  /// returns immediately and the payload travels asynchronously. Eager
  /// traffic is exactly what the CRCP bookmark exchange exists to drain.
  Bytes eager_limit = Bytes::kib(64);
};

class MpiRuntime {
 public:
  using Options = MpiOptions;

  explicit MpiRuntime(sim::Simulation& sim, Options options = {});
  ~MpiRuntime();
  MpiRuntime(const MpiRuntime&) = delete;
  MpiRuntime& operator=(const MpiRuntime&) = delete;

  [[nodiscard]] sim::Simulation& simulation() { return *sim_; }
  [[nodiscard]] Options& options() { return options_; }
  [[nodiscard]] CrService& cr() { return *cr_; }

  /// Adds a process on `os`. Call before init().
  Rank& add_rank(guest::GuestOs& os);
  /// MPI_Init: runs the modex and builds every rank's BTL stack.
  void init();
  [[nodiscard]] bool initialized() const { return initialized_; }
  [[nodiscard]] std::size_t size() const { return ranks_.size(); }
  [[nodiscard]] Rank& rank(RankId id);

  // --- Point-to-point ------------------------------------------------------
  /// Blocking send. Payloads at or below the eager limit return as soon as
  /// the message is on the wire; larger ones (rendezvous) complete when
  /// the payload has fully arrived at `to`.
  [[nodiscard]] sim::Task send(RankId from, RankId to, int tag, Bytes bytes,
                               std::uint64_t token = 0);
  /// Blocking receive; src/tag may be kAnySource/kAnyTag. Fills *out when
  /// non-null.
  [[nodiscard]] sim::Task recv(RankId me, RankId src, int tag, MessageInfo* out = nullptr);

  // --- Nonblocking point-to-point -------------------------------------------
  /// Starts an asynchronous send; completion via wait()/wait_all().
  RequestPtr isend(RankId from, RankId to, int tag, Bytes bytes, std::uint64_t token = 0);
  /// Posts a receive; matching happens at wait time (in post order when
  /// waited in order).
  RequestPtr irecv(RankId me, RankId src, int tag);
  /// Checkpoint-safe completion waits.
  [[nodiscard]] sim::Task wait(RankId me, RequestPtr request);
  [[nodiscard]] sim::Task wait_all(RankId me, std::vector<RequestPtr> requests);
  /// CR-safe progress point for long compute loops (enters the checkpoint
  /// service when one is pending; otherwise free).
  [[nodiscard]] sim::Task progress(RankId me);

  /// Re-runs the address exchange and hands every rank a fresh snapshot.
  void run_modex();

  [[nodiscard]] std::uint64_t in_flight() const { return in_flight_; }
  /// Messages sitting in unexpected queues (tests: no loss across CR).
  [[nodiscard]] std::size_t unexpected_count() const;
  /// Total messages delivered since init (algorithm cost assertions).
  [[nodiscard]] std::uint64_t messages_delivered() const { return messages_delivered_; }

 private:
  friend class CrService;
  [[nodiscard]] sim::Task transfer_and_deliver(RankId from, RankId to, int tag, Bytes bytes,
                                               std::uint64_t token);
  RequestPtr isend_internal(RankId from, RankId to, int tag, Bytes bytes, std::uint64_t token);
  void deliver(RankId to, MessageInfo msg);
  [[nodiscard]] std::optional<MessageInfo> try_match(RankId me, RankId src, int tag);

  sim::Simulation* sim_;
  Options options_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::vector<std::deque<MessageInfo>> unexpected_;
  std::uint64_t in_flight_ = 0;
  std::uint64_t messages_delivered_ = 0;
  bool initialized_ = false;
  std::unique_ptr<CrService> cr_;
};

}  // namespace nm::mpi
