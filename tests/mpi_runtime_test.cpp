// Tests for the nMPI runtime: p2p matching, transport (BTL) selection by
// exclusivity, invalidation across hotplug, and performance ordering of
// the transports.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

#include "core/job.h"
#include "core/testbed.h"
#include "mpi/runtime.h"

namespace nm::mpi {
namespace {

using core::JobConfig;
using core::MpiJob;
using core::Testbed;

JobConfig small_job(int vms, std::size_t ranks_per_vm, bool ib) {
  JobConfig cfg;
  cfg.vm_count = vms;
  cfg.ranks_per_vm = ranks_per_vm;
  cfg.on_ib_cluster = ib;
  cfg.with_hca = ib;
  cfg.vm_template.memory = Bytes::gib(4);
  cfg.vm_template.base_os_footprint = Bytes::mib(512);
  return cfg;
}

TEST(MpiRuntime, SendRecvWithTagsAndTokens) {
  Testbed tb;
  MpiJob job(tb, small_job(2, 1, true));
  job.init();
  std::vector<MessageInfo> got(3);
  job.launch([&](RankId me) -> sim::Task {
    auto& rt = job.runtime();
    if (me == 0) {
      co_await rt.send(0, 1, /*tag=*/7, Bytes::kib(1), /*token=*/111);
      co_await rt.send(0, 1, /*tag=*/9, Bytes::kib(2), /*token=*/222);
      co_await rt.send(0, 1, /*tag=*/7, Bytes::kib(3), /*token=*/333);
    } else {
      co_await rt.recv(1, 0, 9, &got[0]);                    // tag 9 first
      co_await rt.recv(1, kAnySource, 7, &got[1]);           // then first tag-7
      co_await rt.recv(1, kAnySource, kAnyTag, &got[2]);     // then the rest
    }
  });
  tb.sim().run();
  EXPECT_EQ(got[0].token, 222u);
  EXPECT_EQ(got[1].token, 111u);
  EXPECT_EQ(got[2].token, 333u);
  EXPECT_EQ(got[2].bytes, Bytes::kib(3));
  EXPECT_EQ(job.runtime().unexpected_count(), 0u);
  EXPECT_EQ(job.runtime().in_flight(), 0u);
}

TEST(MpiRuntime, RecvBlocksUntilSend) {
  Testbed tb;
  MpiJob job(tb, small_job(2, 1, true));
  job.init();
  double recv_done = -1;
  const double t0 = tb.sim().now().to_seconds();
  job.launch([&](RankId me) -> sim::Task {
    auto& rt = job.runtime();
    if (me == 0) {
      co_await tb.sim().delay(Duration::seconds(5.0));
      co_await rt.send(0, 1, 1, Bytes(64));
    } else {
      co_await rt.recv(1, 0, 1);
      recv_done = tb.sim().now().to_seconds();
    }
  });
  tb.sim().run();
  EXPECT_GT(recv_done, t0 + 5.0);
}

TEST(MpiRuntime, TransportSelectionByExclusivity) {
  Testbed tb;
  MpiJob job(tb, small_job(2, 2, true));  // 2 VMs x 2 ranks
  job.init();
  // Intra-VM: sm wins; inter-VM with HCA: openib beats tcp.
  EXPECT_EQ(job.runtime().rank(0).transport_to(1), "sm");
  EXPECT_EQ(job.runtime().rank(0).transport_to(2), "openib");
  EXPECT_EQ(job.current_transport(), "openib");
  auto names = job.runtime().rank(0).btl_names();
  EXPECT_EQ(names.size(), 3u);  // sm + tcp + openib
}

TEST(MpiRuntime, EthClusterJobUsesTcp) {
  Testbed tb;
  MpiJob job(tb, small_job(2, 1, false));
  job.init();
  EXPECT_EQ(job.current_transport(), "tcp");
  auto names = job.runtime().rank(0).btl_names();
  EXPECT_EQ(names.size(), 2u);  // sm + tcp (openib disqualified itself)
}

TEST(MpiRuntime, IbFasterThanTcpForSamePayload) {
  double ib_time = 0;
  double tcp_time = 0;
  for (const bool ib : {true, false}) {
    Testbed tb;
    MpiJob job(tb, small_job(2, 1, ib));
    job.init();
    const double t0 = tb.sim().now().to_seconds();
    double done = -1;
    job.launch([&job, &tb, &done](RankId me) -> sim::Task {
      auto& rt = job.runtime();
      if (me == 0) {
        co_await rt.send(0, 1, 1, Bytes::gib(1));
      } else {
        co_await rt.recv(1, 0, 1);
        done = tb.sim().now().to_seconds();
      }
    });
    tb.sim().run();
    (ib ? ib_time : tcp_time) = done - t0;
  }
  EXPECT_LT(ib_time * 3, tcp_time);  // QDR vs CPU-bound virtio TCP
}

TEST(MpiRuntime, SmTransferIsLocalAndFast) {
  Testbed tb;
  MpiJob job(tb, small_job(1, 2, true));
  job.init();
  double done = -1;
  const double t0 = tb.sim().now().to_seconds();
  job.launch([&job, &tb, &done](RankId me) -> sim::Task {
    auto& rt = job.runtime();
    if (me == 0) {
      co_await rt.send(0, 1, 1, Bytes::mib(256));
    } else {
      co_await rt.recv(1, 0, 1);
      done = tb.sim().now().to_seconds();
    }
  });
  tb.sim().run();
  // 256 MiB at ~3 GiB/s plus scheduling noise.
  EXPECT_LT(done - t0, 0.5);
}

TEST(MpiRuntime, HcaDetachInvalidatesOpenIbModule) {
  Testbed tb;
  MpiJob job(tb, small_job(2, 1, true));
  job.init();
  EXPECT_FALSE(job.runtime().rank(0).has_invalid_btl());
  // Hot-remove rank 0's HCA behind MPI's back.
  tb.sim().spawn([](Testbed& t, MpiJob& j) -> sim::Task {
    co_await t.ib_host(0).device_del(*j.vms()[0], "vf0");
  }(tb, job));
  tb.sim().run();
  EXPECT_TRUE(job.runtime().rank(0).has_invalid_btl());
  // Selection now falls back to tcp even before reconstruction.
  EXPECT_EQ(job.runtime().rank(0).transport_to(1), "tcp");
  // Reconstruction drops the dead module.
  job.runtime().rank(0).build_btls();
  EXPECT_FALSE(job.runtime().rank(0).has_invalid_btl());
  EXPECT_EQ(job.runtime().rank(0).btl_names().size(), 2u);
}

TEST(MpiRuntime, StaleLidFailsWithoutModexRefresh) {
  // Peer re-attaches its HCA (new LID). A sender still holding the old
  // modex snapshot must fail — this is why BTL reconstruction re-runs the
  // modex.
  Testbed tb;
  MpiJob job(tb, small_job(2, 1, true));
  job.init();
  tb.sim().spawn([](Testbed& t, MpiJob& j) -> sim::Task {
    co_await t.ib_host(1).device_del(*j.vms()[1], "vf0");
    co_await t.ib_host(1).device_add(*j.vms()[1], Testbed::kHcaPciAddr, "vf0");
  }(tb, job));
  tb.sim().run_for(Duration::seconds(60.0));  // re-train

  bool failed = false;
  job.launch([&job, &failed](RankId me) -> sim::Task {
    if (me == 0) {
      try {
        co_await job.runtime().send(0, 1, 1, Bytes::mib(1));
      } catch (const OperationError&) {
        failed = true;
      }
    } else {
      co_await job.runtime().progress(1);
    }
  });
  tb.sim().run();
  EXPECT_TRUE(failed);

  // After reconstruction + modex, traffic flows again.
  job.runtime().rank(0).build_btls();
  job.runtime().rank(1).build_btls();
  job.runtime().run_modex();
  bool ok = false;
  tb.sim().spawn([](MpiJob& j, bool& k) -> sim::Task {
    co_await j.runtime().send(0, 1, 2, Bytes::mib(1));
    k = true;
  }(job, ok));
  tb.sim().spawn([](MpiJob& j) -> sim::Task { co_await j.runtime().recv(1, 0, 2); }(job));
  tb.sim().run();
  EXPECT_TRUE(ok);
}

TEST(MpiRuntime, ApiMisuseChecks) {
  Testbed tb;
  MpiJob job(tb, small_job(2, 1, true));
  EXPECT_THROW(job.launch([](RankId) -> sim::Task { co_return; }), LogicError);
  job.init();
  EXPECT_THROW((void)job.runtime().rank(99), LogicError);
}

// Parameterized: p2p works for every (cluster, payload) combination.
// gtest prints the parameter's raw bytes into each test name, so the case
// must have no padding: with a bool `ib`, seven uninitialised padding bytes
// made the names differ from run to run. `ib` is 0 (Ethernet) or 1 (IB).
struct P2pCase {
  std::uint64_t ib;
  std::uint64_t kib;
};
static_assert(std::has_unique_object_representations_v<P2pCase>);
class MpiP2pMatrix : public ::testing::TestWithParam<P2pCase> {};

TEST_P(MpiP2pMatrix, RoundTripCompletes) {
  const auto param = GetParam();
  Testbed tb;
  MpiJob job(tb, small_job(2, 1, param.ib != 0));
  job.init();
  MessageInfo echo;
  job.launch([&job, &echo, param](RankId me) -> sim::Task {
    auto& rt = job.runtime();
    const Bytes payload = Bytes::kib(param.kib);
    if (me == 0) {
      co_await rt.send(0, 1, 5, payload, 42);
      co_await rt.recv(0, 1, 6, &echo);
    } else {
      MessageInfo in;
      co_await rt.recv(1, 0, 5, &in);
      co_await rt.send(1, 0, 6, in.bytes, in.token + 1);
    }
  });
  tb.sim().run();
  EXPECT_EQ(echo.token, 43u);
  EXPECT_EQ(echo.bytes, Bytes::kib(param.kib));
}

INSTANTIATE_TEST_SUITE_P(Payloads, MpiP2pMatrix,
                         ::testing::Values(P2pCase{true, 1}, P2pCase{true, 1024},
                                           P2pCase{true, 262144}, P2pCase{false, 1},
                                           P2pCase{false, 1024}, P2pCase{false, 262144}));

}  // namespace
}  // namespace nm::mpi
