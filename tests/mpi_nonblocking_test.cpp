// Tests for the eager protocol, nonblocking point-to-point (isend/irecv/
// wait/wait_all), and the CRCP drain of in-flight eager traffic during a
// checkpoint — the part of the bookmark exchange that blocking-only
// traffic never exercises.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/job.h"
#include "core/testbed.h"
#include "mpi/cr.h"
#include "mpi/runtime.h"

namespace nm::mpi {
namespace {

using core::JobConfig;
using core::MpiJob;
using core::Testbed;

JobConfig cfg2(int vms, std::size_t rpv, bool ib = true) {
  JobConfig cfg;
  cfg.vm_count = vms;
  cfg.ranks_per_vm = rpv;
  cfg.on_ib_cluster = ib;
  cfg.with_hca = ib;
  cfg.vm_template.memory = Bytes::gib(4);
  cfg.vm_template.base_os_footprint = Bytes::mib(512);
  return cfg;
}

TEST(EagerProtocol, SmallSendReturnsBeforeDelivery) {
  Testbed tb;
  MpiJob job(tb, cfg2(2, 1));
  job.init();
  double send_returned = -1;
  double recv_done = -1;
  job.launch([&](RankId me) -> sim::Task {
    auto& rt = job.runtime();
    if (me == 0) {
      co_await rt.send(0, 1, 1, Bytes::kib(64));  // at the eager limit
      send_returned = tb.sim().now().to_seconds();
    } else {
      co_await rt.recv(1, 0, 1);
      recv_done = tb.sim().now().to_seconds();
    }
  });
  const double t0 = tb.sim().now().to_seconds();
  tb.sim().run();
  EXPECT_NEAR(send_returned, t0, 1e-9);  // sender did not wait for the wire
  EXPECT_GT(recv_done, send_returned);   // payload arrived later
}

TEST(EagerProtocol, LargeSendIsRendezvous) {
  Testbed tb;
  MpiJob job(tb, cfg2(2, 1));
  job.init();
  double send_returned = -1;
  job.launch([&](RankId me) -> sim::Task {
    auto& rt = job.runtime();
    if (me == 0) {
      co_await rt.send(0, 1, 1, Bytes::mib(64));
      send_returned = tb.sim().now().to_seconds();
    } else {
      co_await rt.recv(1, 0, 1);
    }
  });
  const double t0 = tb.sim().now().to_seconds();
  tb.sim().run();
  EXPECT_GT(send_returned, t0);  // blocked until the payload landed
}

TEST(Nonblocking, IsendIrecvWaitRoundTrip) {
  Testbed tb;
  MpiJob job(tb, cfg2(2, 1));
  job.init();
  MessageInfo got;
  job.launch([&](RankId me) -> sim::Task {
    auto& rt = job.runtime();
    if (me == 0) {
      auto req = rt.isend(0, 1, 9, Bytes::mib(32), /*token=*/77);
      EXPECT_FALSE(req->complete());
      co_await rt.wait(0, req);
      EXPECT_TRUE(req->complete());
    } else {
      auto req = rt.irecv(1, 0, 9);
      co_await rt.wait(1, req);
      got = req->info();
    }
  });
  tb.sim().run();
  EXPECT_EQ(got.token, 77u);
  EXPECT_EQ(got.bytes, Bytes::mib(32));
}

TEST(Nonblocking, OverlappedIsendsCompleteTogether) {
  // Four concurrent isends to distinct peers share the NIC; wait_all
  // collects them. Overlap must beat the sequential blocking time.
  Testbed tb;
  MpiJob job(tb, cfg2(5, 1));
  job.init();
  double overlapped = -1;
  job.launch([&](RankId me) -> sim::Task {
    auto& rt = job.runtime();
    if (me == 0) {
      const double t0 = tb.sim().now().to_seconds();
      std::vector<RequestPtr> reqs;
      for (RankId peer = 1; peer <= 4; ++peer) {
        reqs.push_back(rt.isend(0, peer, 3, Bytes::mib(256)));
      }
      co_await rt.wait_all(0, std::move(reqs));
      overlapped = tb.sim().now().to_seconds() - t0;
    } else {
      co_await rt.recv(me, 0, 3);
    }
  });
  tb.sim().run();
  // 4 x 256 MiB from one HCA at ~32 Gb/s: the tx port serializes them, so
  // overlap ~= serial here, but it must not exceed serial + noise.
  const double serial = 4 * (256.0 * 1024 * 1024) / (32e9 / 8.0);
  EXPECT_LT(overlapped, serial * 1.2);
  EXPECT_GT(overlapped, serial * 0.8);
}

TEST(Nonblocking, WaitOnForeignRequestRejected) {
  Testbed tb;
  MpiJob job(tb, cfg2(2, 1));
  job.init();
  auto req = job.runtime().irecv(1, 0, 1);
  bool threw = false;
  job.launch([&](RankId me) -> sim::Task {
    auto& rt = job.runtime();
    if (me == 0) {
      try {
        co_await rt.wait(0, req);  // rank 0 waiting on rank 1's request
      } catch (const LogicError&) {
        threw = true;
      }
      co_await rt.send(0, 1, 1, Bytes::kib(1));
    } else {
      co_await rt.recv(1, 0, 1);
    }
  });
  tb.sim().run();
  EXPECT_TRUE(threw);
}

TEST(CrcpDrain, EagerTrafficInFlightAtRequestIsDrainedBeforeCheckpoint) {
  // Fire a burst of eager messages and request a checkpoint immediately:
  // the quiesce must drain every in-flight byte before the SELF callbacks
  // run, and nothing may be lost.
  Testbed tb;
  JobConfig cfg = cfg2(2, 1);
  MpiJob job(tb, cfg);
  job.init();
  constexpr int kBurst = 32;
  int received = 0;
  job.launch([&](RankId me) -> sim::Task {
    auto& rt = job.runtime();
    if (me == 0) {
      for (int i = 0; i < kBurst; ++i) {
        co_await rt.send(0, 1, 4, Bytes::kib(32), static_cast<std::uint64_t>(i));
      }
      // Keep servicing so the episode can complete.
      for (int i = 0; i < 200; ++i) {
        co_await rt.progress(0);
        co_await tb.sim().delay(Duration::millis(100));
      }
    } else {
      for (int i = 0; i < kBurst; ++i) {
        MessageInfo info;
        co_await rt.recv(1, 0, 4, &info);
        EXPECT_EQ(info.token, static_cast<std::uint64_t>(received));
        ++received;
      }
      for (int i = 0; i < 200; ++i) {
        co_await rt.progress(1);
        co_await tb.sim().delay(Duration::millis(100));
      }
    }
  });
  core::NinjaStats stats;
  tb.sim().spawn([](core::MpiJob& j, core::NinjaStats& st) -> sim::Task {
    // Request while the eager burst is (likely) still on the wire.
    co_await j.testbed().sim().delay(Duration::millis(1));
    co_await j.fallback_migration(2, &st);
  }(job, stats));
  tb.sim().run();
  EXPECT_EQ(received, kBurst);
  EXPECT_EQ(job.runtime().in_flight(), 0u);
  EXPECT_EQ(job.runtime().unexpected_count(), 0u);
  EXPECT_EQ(job.current_transport(), "tcp");
}

TEST(Collectives2, AlltoallAndBarrierComplete) {
  for (const int vms : {2, 3, 4, 8}) {
    Testbed tb;
    MpiJob job(tb, cfg2(vms, 1));
    job.init();
    int finished = 0;
    job.launch([&](RankId me) -> sim::Task {
      auto& world = job.world();
      co_await world.alltoall(me, Bytes::mib(2));
      co_await world.barrier(me);
      ++finished;
    });
    tb.sim().run();
    EXPECT_EQ(finished, vms) << vms << " VMs";
    EXPECT_EQ(job.runtime().unexpected_count(), 0u) << vms << " VMs";
  }
}

}  // namespace
}  // namespace nm::mpi
