// Algorithm-cost assertions: the collective implementations must send
// exactly the message counts / byte volumes their algorithms promise.
// These pin the cost model the Figure 7/8 reproductions stand on.
#include <gtest/gtest.h>

#include "core/job.h"
#include "core/testbed.h"
#include "mpi/collectives.h"

namespace nm::mpi {
namespace {

using core::JobConfig;
using core::MpiJob;
using core::Testbed;

struct JobSetup {
  Testbed tb;
  std::unique_ptr<MpiJob> job;

  explicit JobSetup(int vms, std::size_t rpv = 1) {
    JobConfig cfg;
    cfg.vm_count = vms;
    cfg.ranks_per_vm = rpv;
    cfg.vm_template.memory = Bytes::gib(4);
    cfg.vm_template.base_os_footprint = Bytes::mib(512);
    job = std::make_unique<MpiJob>(tb, cfg);
    job->init();
  }
};

template <typename Fn>
std::uint64_t messages_for(JobSetup& s, Fn&& per_rank_body) {
  const auto before = s.job->runtime().messages_delivered();
  s.job->launch(per_rank_body);
  s.tb.sim().run();
  return s.job->runtime().messages_delivered() - before;
}

TEST(AlgorithmCost, BcastSendsExactlyNMinusOneMessages) {
  for (const int n : {2, 4, 7, 8}) {
    JobSetup s(n);
    auto* job = s.job.get();
    const auto count = messages_for(s, [job](RankId me) -> sim::Task {
      co_await job->world().bcast(me, 0, Bytes::mib(1));
    });
    EXPECT_EQ(count, static_cast<std::uint64_t>(n - 1)) << n << " ranks";
  }
}

TEST(AlgorithmCost, ReduceSendsExactlyNMinusOneMessages) {
  for (const int n : {2, 4, 8}) {
    JobSetup s(n);
    auto* job = s.job.get();
    const auto count = messages_for(s, [job](RankId me) -> sim::Task {
      co_await job->world().reduce(me, 0, Bytes::mib(1));
    });
    EXPECT_EQ(count, static_cast<std::uint64_t>(n - 1)) << n << " ranks";
  }
}

TEST(AlgorithmCost, AlltoallSendsNTimesNMinusOne) {
  for (const int n : {2, 4, 8}) {
    JobSetup s(n);
    auto* job = s.job.get();
    const auto count = messages_for(s, [job](RankId me) -> sim::Task {
      co_await job->world().alltoall(me, Bytes::kib(256));
    });
    EXPECT_EQ(count, static_cast<std::uint64_t>(n) * (n - 1)) << n << " ranks";
  }
}

TEST(AlgorithmCost, DisseminationBarrierSendsNLogN) {
  // n * ceil(log2 n) one-byte messages.
  JobSetup s(8);
  auto* job = s.job.get();
  const auto count = messages_for(s, [job](RankId me) -> sim::Task {
    co_await job->world().barrier(me);
  });
  EXPECT_EQ(count, 8u * 3u);
}

TEST(AlgorithmCost, BcastLatencyIsLogDepth) {
  // Completion time of a binomial bcast grows with ceil(log2 n), not n.
  double t4 = 0;
  double t8 = 0;
  for (const int n : {4, 8}) {
    JobSetup s(n);
    auto* job = s.job.get();
    double done = 0;
    const double t0 = s.tb.sim().now().to_seconds();
    s.job->launch([job, &done](RankId me) -> sim::Task {
      co_await job->world().bcast(me, 0, Bytes::gib(1));
      auto& sim = job->testbed().sim();
      done = std::max(done, sim.now().to_seconds());
    });
    s.tb.sim().run();
    (n == 4 ? t4 : t8) = done - t0;
  }
  // log2(8)/log2(4) = 1.5; allow contention slack but rule out linear (2x).
  EXPECT_LT(t8, t4 * 1.9);
  EXPECT_GT(t8, t4 * 1.1);
}

}  // namespace
}  // namespace nm::mpi
