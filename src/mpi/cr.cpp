#include "mpi/cr.h"

#include "mpi/runtime.h"
#include "util/error.h"
#include "util/log.h"

namespace nm::mpi {

CrService::CrService(MpiRuntime& runtime)
    : runtime_(&runtime),
      state_changed_(runtime.simulation()),
      completion_(runtime.simulation()) {}

void CrService::register_self(SelfCallback checkpoint, SelfCallback cont,
                              SelfCallback restart) {
  checkpoint_cb_ = std::move(checkpoint);
  continue_cb_ = std::move(cont);
  restart_cb_ = std::move(restart);
}

void CrService::on_init(std::size_t rank_count) {
  rank_count_ = rank_count;
  barrier_ = std::make_unique<sim::Barrier>(runtime_->simulation(), rank_count);
}

std::uint64_t CrService::request() {
  NM_CHECK(runtime_->options().ft_enable_cr,
           "checkpoint requested but the job was not started with ft-enable-cr");
  NM_CHECK(!pending_, "a checkpoint request is already in progress");
  pending_ = true;
  ++requested_generation_;
  NM_LOG_INFO("crcp") << "checkpoint request #" << requested_generation_;
  // Wake every blocked receiver so it can participate.
  for (std::size_t r = 0; r < runtime_->size(); ++r) {
    runtime_->rank(static_cast<RankId>(r)).notify();
  }
  return requested_generation_;
}

sim::Task CrService::wait_complete(std::uint64_t gen) {
  while (completed_generation_ < gen) {
    co_await completion_.wait();
  }
}

sim::Task CrService::service(Rank& rank) {
  NM_CHECK(owes(rank), "rank " << rank.id() << " has no pending checkpoint request to join");
  rank.cr_generation = requested_generation_;
  ++in_service_;
  NM_LOG_TRACE("crcp") << "rank " << rank.id() << " entered service (" << in_service_ << "/"
                       << rank_count_ << ")";
  // 1. CRCP quiesce: the bookmark exchange. All ranks are inside the
  //    library (barrier), then everyone waits until the in-flight byte
  //    count drains to zero — eager/isend traffic posted before the
  //    request is still on the wire at this point.
  co_await barrier_->arrive_and_wait();
  while (runtime_->in_flight() > 0) {
    co_await state_changed_.wait();
  }
  co_await barrier_->arrive_and_wait();
  NM_CHECK(runtime_->in_flight() == 0,
           "quiesce drain finished with " << runtime_->in_flight() << " transfers in flight");

  // 2. OPAL CRS pre-checkpoint: release InfiniBand resources.
  rank.release_ib_resources();

  // 3./4. SELF callbacks (SymVirt windows live inside these).
  if (checkpoint_cb_) {
    co_await checkpoint_cb_(rank);
  }
  if (continue_cb_) {
    co_await continue_cb_(rank);
  }

  // 5. Reconstruction vote: any stale module anywhere, or the forced flag.
  vote_reconstruct_ =
      vote_reconstruct_ || runtime_->options().continue_like_restart || rank.has_invalid_btl();
  co_await barrier_->arrive_and_wait();
  const bool reconstruct = vote_reconstruct_;
  if (reconstruct) {
    rank.build_btls();  // component re-init against current devices
    co_await barrier_->arrive_and_wait();
    // One rank refreshes the shared modex table; everyone then re-snapshots.
    if (rank.id() == 0) {
      runtime_->run_modex();
      NM_LOG_INFO("crcp") << "modex refreshed after BTL reconstruction";
    }
    co_await barrier_->arrive_and_wait();
  }

  // 6. Exit bookkeeping.
  co_await barrier_->arrive_and_wait();
  --in_service_;
  ++exited_;
  if (exited_ == rank_count_) {
    exited_ = 0;
    vote_reconstruct_ = false;
    pending_ = false;
    completed_generation_ = requested_generation_;
    NM_LOG_INFO("crcp") << "checkpoint request #" << completed_generation_ << " complete";
    completion_.notify_all();
  }
}

}  // namespace nm::mpi
