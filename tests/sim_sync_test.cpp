// Tests for Barrier and Notifier — the coordination primitives the CRCP
// quiesce and SymVirt cycles are built on.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"
#include "sim/sync.h"

namespace nm::sim {
namespace {

TEST(Barrier, AllPartiesLeaveTogether) {
  Simulation sim;
  Barrier barrier(sim, 4);
  std::vector<double> left(4, -1);
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulation& s, Barrier& b, int id, std::vector<double>& out) -> Task {
      co_await s.delay(Duration::seconds(static_cast<double>(id)));
      co_await b.arrive_and_wait();
      out[static_cast<std::size_t>(id)] = s.now().to_seconds();
    }(sim, barrier, i, left));
  }
  sim.run();
  for (const double t : left) {
    EXPECT_DOUBLE_EQ(t, 3.0);  // last arrival releases everyone
  }
}

TEST(Barrier, IsCyclicAndReusable) {
  Simulation sim;
  Barrier barrier(sim, 2);
  std::vector<double> stamps;
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Simulation& s, Barrier& b, int id, std::vector<double>& out) -> Task {
      for (int round = 0; round < 3; ++round) {
        co_await s.delay(Duration::seconds(id == 0 ? 1.0 : 2.0));
        co_await b.arrive_and_wait();
        if (id == 0) {
          out.push_back(s.now().to_seconds());
        }
      }
    }(sim, barrier, i, stamps));
  }
  sim.run();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_DOUBLE_EQ(stamps[0], 2.0);
  EXPECT_DOUBLE_EQ(stamps[1], 4.0);
  EXPECT_DOUBLE_EQ(stamps[2], 6.0);
}

TEST(Barrier, SinglePartyPassesThrough) {
  Simulation sim;
  Barrier barrier(sim, 1);
  bool passed = false;
  sim.spawn([](Barrier& b, bool& p) -> Task {
    co_await b.arrive_and_wait();
    p = true;
  }(barrier, passed));
  sim.run();
  EXPECT_TRUE(passed);
  EXPECT_EQ(barrier.arrived(), 0u);
}

TEST(Barrier, PartyThatRearrivesAtTheReleaseInstantWaitsForTheNextCycle) {
  Simulation sim;
  Barrier barrier(sim, 2);
  std::vector<double> eager;
  std::vector<double> late;
  // The eager party arrives again as soon as it is released; the late one
  // arrives at t=1 and at t=5.
  sim.spawn([](Simulation& s, Barrier& b, std::vector<double>& out) -> Task {
    for (int round = 0; round < 2; ++round) {
      co_await b.arrive_and_wait();
      out.push_back(s.now().to_seconds());
    }
  }(sim, barrier, eager));
  sim.spawn([](Simulation& s, Barrier& b, std::vector<double>& out) -> Task {
    co_await s.delay(Duration::seconds(1.0));
    co_await b.arrive_and_wait();
    out.push_back(s.now().to_seconds());
    co_await s.delay(Duration::seconds(4.0));
    co_await b.arrive_and_wait();
    out.push_back(s.now().to_seconds());
  }(sim, barrier, late));
  sim.run_until(TimePoint::origin() + Duration::seconds(2.0));
  EXPECT_EQ(eager, (std::vector<double>{1.0}));
  EXPECT_EQ(barrier.arrived(), 1u);  // the eager re-arrival opened the next cycle
  sim.run();
  EXPECT_EQ(eager, (std::vector<double>{1.0, 5.0}));
  EXPECT_EQ(late, (std::vector<double>{1.0, 5.0}));
}

TEST(Barrier, ZeroPartiesRejected) {
  Simulation sim;
  EXPECT_THROW(Barrier(sim, 0), LogicError);
}

TEST(Notifier, WakesOnlyCurrentWaiters) {
  Simulation sim;
  Notifier notifier(sim);
  std::vector<double> woke;
  // Waiter A parks immediately.
  sim.spawn([](Simulation& s, Notifier& n, std::vector<double>& out) -> Task {
    co_await n.wait();
    out.push_back(s.now().to_seconds());
  }(sim, notifier, woke));
  // Notify at t=1; a second waiter arrives at t=2 and must wait for the
  // *next* notify at t=3, not be woken by the stale one.
  sim.post(Duration::seconds(1.0), [&] { notifier.notify_all(); });
  sim.post(Duration::seconds(2.0), [&] {
    sim.spawn([](Simulation& s, Notifier& n, std::vector<double>& out) -> Task {
      co_await n.wait();
      out.push_back(s.now().to_seconds());
    }(sim, notifier, woke));
  });
  sim.post(Duration::seconds(3.0), [&] { notifier.notify_all(); });
  sim.run();
  ASSERT_EQ(woke.size(), 2u);
  EXPECT_DOUBLE_EQ(woke[0], 1.0);
  EXPECT_DOUBLE_EQ(woke[1], 3.0);
}

TEST(Notifier, WaiterThatRewaitsAtItsWakeInstantParksUntilTheNextNotify) {
  Simulation sim;
  Notifier notifier(sim);
  std::vector<double> woke;
  sim.spawn([](Simulation& s, Notifier& n, std::vector<double>& out) -> Task {
    while (true) {
      co_await n.wait();
      out.push_back(s.now().to_seconds());
    }
  }(sim, notifier, woke));
  // Both t=1 notifies run before the woken waiter resumes and waits again,
  // so only the first one reaches it; its re-wait at t=1 lasts until t=3.
  sim.post(Duration::seconds(1.0), [&] {
    notifier.notify_all();
    notifier.notify_all();
  });
  sim.post(Duration::seconds(3.0), [&] { notifier.notify_all(); });
  sim.run_until(TimePoint::origin() + Duration::seconds(2.0));
  EXPECT_EQ(woke, (std::vector<double>{1.0}));
  sim.run();
  EXPECT_EQ(woke, (std::vector<double>{1.0, 3.0}));
}

TEST(Notifier, NotifyWithNoWaitersIsANoOp) {
  Simulation sim;
  Notifier notifier(sim);
  notifier.notify_all();
  notifier.notify_all();
  bool woke = false;
  sim.spawn([](Notifier& n, bool& w) -> Task {
    co_await n.wait();
    w = true;
  }(notifier, woke));
  sim.run_for(Duration::seconds(1.0));
  EXPECT_FALSE(woke);  // past notifies don't satisfy future waits
  notifier.notify_all();
  sim.run();
  EXPECT_TRUE(woke);
}

TEST(Notifier, ConditionLoopPattern) {
  // The canonical use: wait until a predicate over shared state holds.
  Simulation sim;
  Notifier notifier(sim);
  int count = 0;
  double satisfied_at = -1;
  sim.spawn([](Simulation& s, Notifier& n, int& c, double& t) -> Task {
    while (c < 3) {
      co_await n.wait();
    }
    t = s.now().to_seconds();
  }(sim, notifier, count, satisfied_at));
  for (int i = 1; i <= 3; ++i) {
    sim.post(Duration::seconds(static_cast<double>(i)), [&] {
      ++count;
      notifier.notify_all();
    });
  }
  sim.run();
  EXPECT_DOUBLE_EQ(satisfied_at, 3.0);
}

}  // namespace
}  // namespace nm::sim
