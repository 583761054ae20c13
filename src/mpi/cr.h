// The checkpoint/restart stack: OMPI CRCP (coordination protocol that
// quiesces in-flight traffic) + OPAL CRS with a SELF component
// (application-provided checkpoint/continue/restart callbacks). Ninja's
// libsymvirt registers its SymVirt coordinator as the SELF callbacks;
// between the checkpoint and continue callbacks the VMM-side controller
// detaches devices, migrates the VM, and re-attaches (Fig 4).
//
// Service flow (SPMD — every rank executes this when a checkpoint is
// pending, entering from any MPI call):
//   1. quiesce barrier  — the CRCP bookmark exchange: all ranks inside the
//      library and no bytes in flight;
//   2. release InfiniBand resources (CRS pre-checkpoint);
//   3. SELF checkpoint callback (windows A: detach, B: migrate);
//   4. SELF continue callback  (window C: re-attach, link-up wait);
//   5. reconstruction vote + BTL rebuild with a fresh modex — forced when
//      `ompi_cr_continue_like_restart` is set, otherwise only when some
//      module went stale (paper §III-C);
//   6. exit barrier; the request is then complete.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "mpi/runtime.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace nm::mpi {

class CrService {
 public:
  /// A SELF-component callback: a coroutine run in the context of a rank.
  using SelfCallback = std::function<sim::Task(Rank&)>;

  explicit CrService(MpiRuntime& runtime);

  /// Registers the SELF component callbacks (libsymvirt does this at load).
  void register_self(SelfCallback checkpoint, SelfCallback cont, SelfCallback restart);

  /// Initiates a coordinated checkpoint (the `ompi-checkpoint` analogue).
  /// Returns the request generation to wait on. Requires ft_enable_cr.
  std::uint64_t request();
  [[nodiscard]] bool pending() const { return pending_; }
  /// Waits until request generation `gen` has fully completed.
  [[nodiscard]] sim::Task wait_complete(std::uint64_t gen);

  /// Library entry check, made inline on every MPI call: true while a
  /// request is pending that `rank` has not joined yet. A rank joins each
  /// request at most once, so after its part it may re-enter the library
  /// while slower ranks are still inside.
  [[nodiscard]] bool owes(const Rank& rank) const {
    return pending_ && rank.cr_generation < requested_generation_;
  }
  /// Runs `rank`'s part of the pending request. Call only when owes(rank).
  [[nodiscard]] sim::Task service(Rank& rank);

  /// Internal: runtime state changed (delivery etc.) — re-check conditions.
  void notify_state_changed() { state_changed_.notify_all(); }
  /// Internal: called by MpiRuntime::init.
  void on_init(std::size_t rank_count);

 private:
  MpiRuntime* runtime_;
  SelfCallback checkpoint_cb_;
  SelfCallback continue_cb_;
  SelfCallback restart_cb_;  // kept for API parity; SymVirt does not use it

  bool pending_ = false;
  std::uint64_t requested_generation_ = 0;
  std::uint64_t completed_generation_ = 0;
  std::size_t rank_count_ = 0;
  std::size_t in_service_ = 0;
  std::size_t exited_ = 0;
  bool vote_reconstruct_ = false;
  std::unique_ptr<sim::Barrier> barrier_;
  sim::Notifier state_changed_;
  sim::Notifier completion_;
};

}  // namespace nm::mpi
