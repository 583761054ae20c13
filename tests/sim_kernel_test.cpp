// Tests for the discrete-event simulation kernel: event ordering, coroutine
// tasks, events/gates/channels/semaphores, exception propagation, the
// allocation-free inline-callback event path and the task frame pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/error.h"
#include "util/rng.h"

// GCC pairs the std::free in the replaced operator delete below against
// whatever allocation it inlined at each call site and warns; the pair is
// matched in fact (the replaced operator new routes through std::malloc).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

// Replaceable global allocation functions with an opt-in counter: the
// zero-allocation test flips the flag around the steady-state timer path.
std::atomic<std::int64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

// Defined by the AddressSanitizer runtime; null in a build without it.
extern "C" int __asan_address_is_poisoned(const volatile void* addr) __attribute__((weak));

namespace nm::sim {
namespace {

TEST(Simulation, CallbacksRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.post(Duration::seconds(2.0), [&] { order.push_back(2); });
  sim.post(Duration::seconds(1.0), [&] { order.push_back(1); });
  sim.post(Duration::seconds(3.0), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 3.0);
}

TEST(Simulation, TiesBreakByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.post(Duration::seconds(1.0), [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.post(Duration::seconds(1.0), [&] { ++fired; });
  sim.post(Duration::seconds(5.0), [&] { ++fired; });
  sim.run_until(TimePoint::origin() + Duration::seconds(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

// --- Far timers ---------------------------------------------------------------
// Every pending entry lives in one binary heap ordered by (at, seq). These
// cases pin the properties scenarios with many far-future timers rely on:
// dispatch in time order, post-order tie-breaks, honest pending counts,
// run_until isolation, and an allocation-free steady state. The suite keeps
// the name of the timer wheel an earlier kernel used, so test names stay
// stable.

TEST(TimerWheel, FarTimersFireInOrderAcrossLevelsAndOverflow) {
  // Horizons from milliseconds to six hours, posted out of order behind a
  // near anchor: dispatch follows absolute time, whatever the post order.
  Simulation sim;
  std::vector<int> order;
  sim.post(Duration::millis(1), [&] { order.push_back(0); });
  sim.post(Duration::minutes(360.0), [&] { order.push_back(5); });
  sim.post(Duration::seconds(100.0), [&] { order.push_back(4); });
  sim.post(Duration::millis(10), [&] { order.push_back(2); });
  sim.post(Duration::seconds(1.0), [&] { order.push_back(3); });
  sim.post(Duration::millis(5), [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 21600.0);
}

TEST(TimerWheel, SameInstantTiesKeepPostOrderAcrossHeapAndWheel) {
  // Three entries at one far instant, posted before and after a nearer
  // one: the tie at the far instant breaks by sequence number, i.e. in
  // post order.
  Simulation sim;
  std::vector<int> order;
  const Duration far = Duration::seconds(2.0);
  sim.post(far, [&] { order.push_back(1); });
  sim.post(Duration::millis(1), [&] { order.push_back(0); });
  sim.post(far, [&] { order.push_back(2); });
  sim.post(far, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TimerWheel, PendingEventCountIncludesParkedTimers) {
  // Far timers count as pending from the moment they are posted.
  Simulation sim;
  sim.post(Duration::millis(1), [] {});
  sim.post(Duration::seconds(10.0), [] {});
  sim.post(Duration::minutes(5.0), [] {});
  sim.post(Duration::minutes(360.0), [] {});
  EXPECT_EQ(sim.pending_event_count(), 4u);
  sim.run();
  EXPECT_EQ(sim.pending_event_count(), 0u);
}

TEST(TimerWheel, RunUntilLeavesParkedTimersIntact) {
  // run_until dispatches only what is due by the deadline; a later timer
  // stays pending and fires at its own instant on the next run.
  Simulation sim;
  int fired = 0;
  sim.post(Duration::millis(1), [&] { ++fired; });
  sim.post(Duration::minutes(10.0), [&] { ++fired; });
  sim.run_until(TimePoint::origin() + Duration::seconds(1.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_event_count(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 600.0);
}

TEST(TimerWheel, SteadyStateFarPostsAreAllocationFree) {
  // Rounds of 256 timers spread from 3 ms to a minute out: once one warm
  // round has grown the heap and the callback slab, later rounds reuse
  // their storage and allocate nothing. Each round starts at a multiple of
  // 2^36 ns only to keep the round shape identical from one round to the
  // next.
  Simulation sim;
  constexpr int kBatch = 256;
  std::uint64_t sink = 0;
  std::uint64_t* sink_p = &sink;
  const auto round = [&] {
    const std::int64_t wrap = std::int64_t{1} << 36;
    const std::int64_t next = (sim.now().count_nanos() / wrap + 1) * wrap;
    sim.run_until(TimePoint::from_nanos(next));
    sim.post(Duration::nanos(1), [] {});  // a near anchor ahead of the far posts
    for (int i = 0; i < kBatch; ++i) {
      sim.post(Duration::millis(3 + (i * 229) % 60000),
               [sink_p, a = static_cast<std::uint64_t>(i)] { *sink_p += a; });
    }
    sim.run();
  };
  round();  // warm the heap and callback slab
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int r = 0; r < 4; ++r) {
    round();
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "far post()/run() allocated on the steady-state timer path";
  EXPECT_EQ(sink, 5ull * kBatch * (kBatch - 1) / 2);
}

// --- Cancelable entries and the same-instant lane ---------------------------
// post_cancelable hands out a ticket that re-keys or removes its entry in
// place; entries posted for the current instant skip the heap for a FIFO
// lane. Neither may change what runs when: the pop order stays (at, seq).

TEST(TimerTickets, CancelledEntryNeverRunsAndReleasesCapturesAtCancel) {
  Simulation sim;
  auto payload = std::make_shared<int>(7);
  bool ran = false;
  const auto ticket =
      sim.post_cancelable(Duration::seconds(1.0), [payload, &ran] { ran = *payload == 7; });
  EXPECT_EQ(payload.use_count(), 2);
  EXPECT_TRUE(sim.pending(ticket));
  EXPECT_EQ(sim.pending_event_count(), 1u);
  EXPECT_TRUE(sim.cancel(ticket));
  EXPECT_EQ(payload.use_count(), 1) << "cancel must destroy the callback's captures";
  EXPECT_FALSE(sim.pending(ticket));
  EXPECT_EQ(sim.pending_event_count(), 0u);
  EXPECT_EQ(sim.run(), TimePoint::origin());
  EXPECT_FALSE(ran);
}

TEST(TimerTickets, StaleTicketIsANoOpEvenAfterItsSlotIsRecycled) {
  Simulation sim;
  int first = 0;
  int second = 0;
  const auto stale = sim.post_cancelable(Duration::millis(1), [&] { ++first; });
  sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(sim.pending(stale));
  // The next post reuses the freed callback slot under a new generation.
  const auto live = sim.post_cancelable(Duration::millis(5), [&] { ++second; });
  ASSERT_EQ(live.slot, stale.slot);
  EXPECT_FALSE(sim.cancel(stale));
  EXPECT_FALSE(sim.reschedule(stale, Duration::seconds(9.0)));
  EXPECT_TRUE(sim.pending(live));
  EXPECT_EQ(sim.run(), TimePoint::origin() + Duration::millis(6));
  EXPECT_EQ(second, 1);
  // A fired live ticket is stale too.
  EXPECT_FALSE(sim.cancel(live));
  EXPECT_FALSE(sim.reschedule(live, Duration::millis(1)));
  EXPECT_EQ(sim.pending_event_count(), 0u);
}

TEST(TimerTickets, RekeyedEntryTiesExactlyLikeCancelPlusPost) {
  // At t = 1 s an entry due at 9 s is moved to 3 s, between plain posts for
  // 3 s made before and after the move. Re-keying and cancel + post must
  // give the same order: after the earlier posts, before the later ones.
  const auto order_with = [](bool rekey) {
    Simulation sim;
    std::vector<std::string> order;
    auto ticket = sim.post_cancelable(Duration::seconds(9.0), [&] { order.push_back("moved"); });
    sim.post(Duration::seconds(3.0), [&] { order.push_back("before-1"); });
    sim.post(Duration::seconds(1.0), [&] {
      sim.post(Duration::seconds(2.0), [&] { order.push_back("before-2"); });
      if (rekey) {
        EXPECT_TRUE(sim.reschedule(ticket, Duration::seconds(2.0)));
      } else {
        EXPECT_TRUE(sim.cancel(ticket));
        ticket = sim.post_cancelable(Duration::seconds(2.0), [&] { order.push_back("moved"); });
      }
      sim.post(Duration::seconds(2.0), [&] { order.push_back("after"); });
    });
    EXPECT_EQ(sim.run(), TimePoint::origin() + Duration::seconds(3.0));
    return order;
  };
  const std::vector<std::string> want{"before-1", "before-2", "moved", "after"};
  EXPECT_EQ(order_with(true), want);
  EXPECT_EQ(order_with(false), want);
}

TEST(TimerTickets, RandomRekeysAndCancelsKeepTheReferenceOrder) {
  // Property check against a sorted reference: random posts, cancelable
  // posts, re-keys (earlier and later) and cancels in a heap of a few
  // hundred entries must dispatch exactly the live entries, in (at, seq)
  // order, where a re-key draws a fresh seq.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Simulation sim;
    Rng rng = Rng::stream(seed, "ticket-property");
    std::uint64_t seq = 0;
    std::map<std::pair<std::int64_t, std::uint64_t>, int> want;  // (at, seq) -> id
    std::map<int, std::pair<std::int64_t, std::uint64_t>> key_of;
    std::vector<std::pair<int, Simulation::Ticket>> tickets;
    std::vector<int> got;
    for (int id = 0; id < 400; ++id) {
      const auto delay = Duration::nanos(1 + static_cast<std::int64_t>(rng.next_below(50)));
      const std::pair<std::int64_t, std::uint64_t> key{delay.count_nanos(), seq++};
      want[key] = id;
      key_of[id] = key;
      if (rng.next_below(2) == 0) {
        sim.post(delay, [&got, id] { got.push_back(id); });
      } else {
        tickets.emplace_back(id, sim.post_cancelable(delay, [&got, id] { got.push_back(id); }));
      }
      if (!tickets.empty() && rng.next_below(3) == 0) {
        const auto pick = static_cast<std::size_t>(rng.next_below(tickets.size()));
        auto [victim, ticket] = tickets[pick];
        want.erase(key_of[victim]);
        if (rng.next_below(2) == 0) {
          ASSERT_TRUE(sim.cancel(ticket));
          tickets.erase(tickets.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {
          const auto to = Duration::nanos(1 + static_cast<std::int64_t>(rng.next_below(50)));
          ASSERT_TRUE(sim.reschedule(ticket, to));
          key_of[victim] = {to.count_nanos(), seq++};
          want[key_of[victim]] = victim;
        }
      }
    }
    EXPECT_EQ(sim.pending_event_count(), want.size());
    sim.run();
    std::vector<int> expected;
    for (const auto& [key, id] : want) {
      expected.push_back(id);
    }
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
}

TEST(TimerTickets, ZeroDelayPostsInterleaveWithDueHeapEntriesBySequence) {
  // Entries due at t = 1 s were posted earlier, so their seqs precede every
  // zero-delay post made at 1 s: the lane runs after them, in post order,
  // whatever the kind of entry (post, post_at(now), spawn, Event wake-up).
  Simulation sim;
  std::vector<std::string> order;
  Event ev(sim);
  sim.spawn([](Event& e, std::vector<std::string>& out) -> Task {
    co_await e.wait();
    out.push_back("woken");
  }(ev, order));
  sim.run();  // park the waiter
  sim.post(Duration::seconds(1.0), [&] {
    order.push_back("heap-1");
    sim.post(Duration::zero(), [&] { order.push_back("lane-1"); });
    ev.set();
    sim.post_at(sim.now(), [&] { order.push_back("lane-2"); });
    sim.spawn([](std::vector<std::string>& out) -> Task {
      out.push_back("spawned");
      co_return;
    }(order));
  });
  sim.post(Duration::seconds(1.0), [&] {
    order.push_back("heap-2");
    sim.post(Duration::zero(), [&] { order.push_back("lane-3"); });
  });
  sim.post(Duration::seconds(1.0), [&] { order.push_back("heap-3"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"heap-1", "heap-2", "heap-3", "lane-1", "woken",
                                             "lane-2", "spawned", "lane-3"}));
}

TEST(TimerTickets, ZeroDelayPostsCountAsPendingAndRunUnderRunUntilNow) {
  Simulation sim;
  sim.run_until(TimePoint::origin() + Duration::seconds(2.0));
  int ran = 0;
  sim.post(Duration::zero(), [&] { ++ran; });
  sim.post_at(sim.now(), [&] { ++ran; });
  sim.post(Duration::millis(1), [&] { ++ran; });
  EXPECT_EQ(sim.pending_event_count(), 3u);
  EXPECT_EQ(sim.run_until(sim.now()), TimePoint::origin() + Duration::seconds(2.0));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.pending_event_count(), 1u);
  sim.run();
  EXPECT_EQ(ran, 3);
}

TEST(TimerTickets, SteadyStateRekeyAndCancelAreAllocationFree) {
  // Rounds of 256 cancelable timers: each is re-keyed twice (once later,
  // once earlier), every third is cancelled, and the rest drain. After one
  // warm round has grown the heap and slab, rounds allocate nothing.
  Simulation sim;
  constexpr int kBatch = 256;
  std::uint64_t sink = 0;
  std::uint64_t* sink_p = &sink;
  std::vector<Simulation::Ticket> tickets(kBatch);
  const auto round = [&] {
    for (int i = 0; i < kBatch; ++i) {
      tickets[i] = sim.post_cancelable(Duration::micros(1 + (i * 37) % 500),
                                       [sink_p, a = static_cast<std::uint64_t>(i)] { *sink_p += a; });
    }
    for (int i = 0; i < kBatch; ++i) {
      EXPECT_TRUE(sim.reschedule(tickets[i], Duration::millis(2 + i % 7)));
      EXPECT_TRUE(sim.reschedule(tickets[i], Duration::micros(1 + (i * 91) % 700)));
      if (i % 3 == 0) {
        EXPECT_TRUE(sim.cancel(tickets[i]));
      }
    }
    sim.run();
  };
  round();  // warm the heap and callback slab
  sink = 0;
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int r = 0; r < 4; ++r) {
    round();
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "post_cancelable/reschedule/cancel allocated in the steady state";
  std::uint64_t want = 0;
  for (int i = 0; i < kBatch; ++i) {
    want += i % 3 == 0 ? 0 : static_cast<std::uint64_t>(i);
  }
  EXPECT_EQ(sink, 4 * want);
}

TEST(Simulation, DelayAdvancesClock) {
  Simulation sim;
  std::vector<double> stamps;
  sim.spawn([](Simulation& s, std::vector<double>& out) -> Task {
    out.push_back(s.now().to_seconds());
    co_await s.delay(Duration::seconds(1.5));
    out.push_back(s.now().to_seconds());
    co_await s.delay(Duration::millis(500));
    out.push_back(s.now().to_seconds());
  }(sim, stamps));
  sim.run();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_DOUBLE_EQ(stamps[0], 0.0);
  EXPECT_DOUBLE_EQ(stamps[1], 1.5);
  EXPECT_DOUBLE_EQ(stamps[2], 2.0);
  EXPECT_EQ(sim.live_task_count(), 0u);
}

TEST(Simulation, NegativeDelayThrows) {
  Simulation sim;
  EXPECT_THROW(sim.post(Duration::seconds(-1.0), [] {}), LogicError);
}

Task child_accumulate(Simulation& sim, int& acc) {
  co_await sim.delay(Duration::seconds(1.0));
  acc += 10;
}

TEST(Task, AwaitedChildRunsStructured) {
  Simulation sim;
  int acc = 0;
  std::vector<double> stamps;
  sim.spawn([](Simulation& s, int& a, std::vector<double>& out) -> Task {
    co_await child_accumulate(s, a);
    out.push_back(s.now().to_seconds());
    co_await child_accumulate(s, a);
    out.push_back(s.now().to_seconds());
  }(sim, acc, stamps));
  sim.run();
  EXPECT_EQ(acc, 20);
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_DOUBLE_EQ(stamps[0], 1.0);
  EXPECT_DOUBLE_EQ(stamps[1], 2.0);
}

Task throwing_child(Simulation& sim) {
  co_await sim.delay(Duration::seconds(1.0));
  throw OperationError("child failed");
}

TEST(Task, ChildExceptionPropagatesToParent) {
  Simulation sim;
  bool caught = false;
  sim.spawn([](Simulation& s, bool& c) -> Task {
    try {
      co_await throwing_child(s);
    } catch (const OperationError&) {
      c = true;
    }
  }(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Task, DetachedExceptionSurfacesFromRun) {
  Simulation sim;
  sim.spawn(throwing_child(sim));
  EXPECT_THROW(sim.run(), OperationError);
}

TEST(TaskRef, JoinViaCompletionEvent) {
  Simulation sim;
  std::vector<std::string> order;
  auto worker = sim.spawn([](Simulation& s, std::vector<std::string>& out) -> Task {
    co_await s.delay(Duration::seconds(2.0));
    out.push_back("worker");
  }(sim, order));
  sim.spawn([](Simulation& s, TaskRef w, std::vector<std::string>& out) -> Task {
    co_await w.completion().wait();
    out.push_back("joiner@" + std::to_string(s.now().count_nanos()));
  }(sim, worker, order));
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "worker");
  EXPECT_EQ(order[1], "joiner@" + std::to_string(Duration::seconds(2.0).count_nanos()));
  EXPECT_TRUE(worker.done());
}

TEST(TaskRef, JoinAfterCompletionDoesNotBlock) {
  Simulation sim;
  auto worker = sim.spawn([](Simulation& s) -> Task { co_await s.delay(Duration::zero()); }(sim));
  sim.run();
  ASSERT_TRUE(worker.done());
  bool joined = false;
  sim.spawn([](TaskRef w, bool& j) -> Task {
    co_await w.completion().wait();
    j = true;
  }(worker, joined));
  sim.run();
  EXPECT_TRUE(joined);
}

TEST(Event, BroadcastWakesAllWaiters) {
  Simulation sim;
  Event ev(sim);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sim.spawn([](Event& e, int& w) -> Task {
      co_await e.wait();
      ++w;
    }(ev, woken));
  }
  sim.post(Duration::seconds(1.0), [&] { ev.set(); });
  sim.run();
  EXPECT_EQ(woken, 5);
  EXPECT_TRUE(ev.is_set());
}

TEST(Event, WaitOnSetEventIsImmediate) {
  Simulation sim;
  Event ev(sim);
  ev.set();
  double stamp = -1;
  sim.spawn([](Simulation& s, Event& e, double& t) -> Task {
    co_await e.wait();
    t = s.now().to_seconds();
  }(sim, ev, stamp));
  sim.run();
  EXPECT_DOUBLE_EQ(stamp, 0.0);
}

TEST(Gate, ClosedGateParksUntilOpen) {
  Simulation sim;
  Gate gate(sim, /*initially_open=*/false);
  std::vector<double> stamps;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulation& s, Gate& g, std::vector<double>& out) -> Task {
      co_await g.opened();
      out.push_back(s.now().to_seconds());
    }(sim, gate, stamps));
  }
  sim.post(Duration::seconds(4.0), [&] { gate.open(); });
  sim.run();
  ASSERT_EQ(stamps.size(), 3u);
  for (const double t : stamps) {
    EXPECT_DOUBLE_EQ(t, 4.0);
  }
}

TEST(Gate, ReclosableBetweenWaits) {
  Simulation sim;
  Gate gate(sim, true);
  std::vector<double> stamps;
  sim.spawn([](Simulation& s, Gate& g, std::vector<double>& out) -> Task {
    co_await g.opened();  // open: immediate
    out.push_back(s.now().to_seconds());
    co_await s.delay(Duration::seconds(1.0));
    co_await g.opened();  // closed at t=0.5, reopened at t=3
    out.push_back(s.now().to_seconds());
  }(sim, gate, stamps));
  sim.post(Duration::millis(500), [&] { gate.close(); });
  sim.post(Duration::seconds(3.0), [&] { gate.open(); });
  sim.run();
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_DOUBLE_EQ(stamps[0], 0.0);
  EXPECT_DOUBLE_EQ(stamps[1], 3.0);
}

TEST(Channel, BufferedSendThenReceive) {
  Simulation sim;
  Channel<int> ch(sim);
  ch.send(1);
  ch.send(2);
  std::vector<int> got;
  sim.spawn([](Channel<int>& c, std::vector<int>& out) -> Task {
    out.push_back(co_await c.recv());
    out.push_back(co_await c.recv());
  }(ch, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Channel, ReceiverWaitsForSender) {
  Simulation sim;
  Channel<std::string> ch(sim);
  std::string got;
  double stamp = -1;
  sim.spawn([](Simulation& s, Channel<std::string>& c, std::string& g, double& t) -> Task {
    g = co_await c.recv();
    t = s.now().to_seconds();
  }(sim, ch, got, stamp));
  sim.post(Duration::seconds(2.5), [&] { ch.send("hello"); });
  sim.run();
  EXPECT_EQ(got, "hello");
  EXPECT_DOUBLE_EQ(stamp, 2.5);
}

TEST(Channel, MultipleReceiversServedFifo) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<std::pair<int, int>> got;  // (receiver, value)
  for (int r = 0; r < 3; ++r) {
    sim.spawn([](Channel<int>& c, int recv_id, std::vector<std::pair<int, int>>& out) -> Task {
      const int v = co_await c.recv();
      out.emplace_back(recv_id, v);
    }(ch, r, got));
  }
  sim.post(Duration::seconds(1.0), [&] {
    ch.send(100);
    ch.send(200);
    ch.send(300);
  });
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 100}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 200}));
  EXPECT_EQ(got[2], (std::pair<int, int>{2, 300}));
}

TEST(Channel, TryRecvNonBlocking) {
  Simulation sim;
  Channel<int> ch(sim);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(7);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

TEST(Semaphore, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int concurrent = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    sim.spawn([](Simulation& s, Semaphore& sm, int& cur, int& pk) -> Task {
      co_await sm.acquire();
      ++cur;
      pk = std::max(pk, cur);
      co_await s.delay(Duration::seconds(1.0));
      --cur;
      sm.release();
    }(sim, sem, concurrent, peak));
  }
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 3.0);  // 6 jobs, 2 wide, 1s each
}

TEST(JoinAll, WaitsForEveryTask) {
  Simulation sim;
  std::vector<TaskRef> refs;
  refs.reserve(4);
  for (int i = 1; i <= 4; ++i) {
    refs.push_back(sim.spawn([](Simulation& s, int k) -> Task {
      co_await s.delay(Duration::seconds(static_cast<double>(k)));
    }(sim, i)));
  }
  double done_at = -1;
  sim.spawn([](Simulation& s, std::vector<TaskRef> rs, double& t) -> Task {
    co_await join_all(std::move(rs));
    t = s.now().to_seconds();
  }(sim, refs, done_at));
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 4.0);
  EXPECT_EQ(sim.live_task_count(), 0u);
}

TEST(Simulation, DestructionWithSuspendedTasksIsClean) {
  // A simulation torn down mid-run must destroy suspended coroutines without
  // leaks or crashes (exercised under ASan in CI-style runs).
  auto sim = std::make_unique<Simulation>();
  Event ev(*sim);
  sim->spawn([](Event& e) -> Task { co_await e.wait(); }(ev));
  sim->run_for(Duration::seconds(1.0));
  EXPECT_EQ(sim->live_task_count(), 1u);
  sim.reset();  // no crash, no leak
}

// --- Inline-callback event path ---------------------------------------------

TEST(InlineEvents, SteadyStatePostIsAllocationFree) {
  Simulation sim;
  constexpr int kBatch = 512;
  // Warm the queue's heap storage and the callback pool past the batch
  // size, so steady-state posts recycle slots instead of growing anything.
  for (int i = 0; i < 4 * kBatch; ++i) {
    sim.post(Duration::nanos(i), [] {});
  }
  sim.run();

  std::uint64_t sink = 0;
  std::uint64_t* sink_p = &sink;
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < kBatch; ++i) {
      // A 24-byte capture: one pointer plus two words — the size class
      // std::function would have sent to the heap (libstdc++ SBO is 16).
      sim.post(Duration::nanos(i + 1),
               [sink_p, a = static_cast<std::uint64_t>(i),
                b = static_cast<std::uint64_t>(round)] { *sink_p += a + b; });
    }
    sim.run();
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "post()/run() allocated on the steady-state timer path";
  EXPECT_EQ(sink, 8ull * kBatch * (kBatch - 1) / 2 + kBatch * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(InlineEvents, MoveOnlyCallbacksAreAccepted) {
  // InlineCallback is move-only-friendly, which std::function never was:
  // a posted event can own its payload outright.
  Simulation sim;
  auto payload = std::make_unique<int>(41);
  int got = 0;
  sim.post(Duration::seconds(1.0),
           [owned = std::move(payload), &got]() mutable { got = *owned + 1; });
  sim.run();
  EXPECT_EQ(got, 42);
}

TEST(InlineEvents, TieBreakBySequenceSurvivesHeapChurn) {
  // Same-timestamp events must fire in post order (time, then sequence)
  // regardless of how the binary heap relocates entries. Interleave three
  // timestamps, posting out of time order, so sift-up/down actually moves
  // entries around.
  Simulation sim;
  std::vector<std::pair<int, int>> fired;  // (timestamp bucket, post index)
  for (int i = 0; i < 64; ++i) {
    const int bucket = (i * 7 + 3) % 3;  // 0,1,2 in scrambled order
    sim.post(Duration::seconds(1.0 + bucket), [&fired, bucket, i] {
      fired.emplace_back(bucket, i);
    });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 64u);
  // Buckets ascend; within a bucket, post indices ascend.
  for (std::size_t k = 1; k < fired.size(); ++k) {
    EXPECT_TRUE(fired[k - 1].first < fired[k].first ||
                (fired[k - 1].first == fired[k].first &&
                 fired[k - 1].second < fired[k].second))
        << "entry " << k << " fired out of (time, sequence) order";
  }
}

TEST(InlineEvents, CallbackPostedFromCallbackRunsAfterSameInstantPeers) {
  // A zero-delay post made *during* an event at time T gets a higher
  // sequence number than everything already queued for T, so it runs after
  // its same-instant peers — the ordering contract rebalance timers rely on.
  Simulation sim;
  std::vector<std::string> order;
  sim.post(Duration::seconds(1.0), [&] {
    order.push_back("first");
    sim.post(Duration::zero(), [&] { order.push_back("nested"); });
  });
  sim.post(Duration::seconds(1.0), [&] { order.push_back("second"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second", "nested"}));
}

TEST(InlineEvents, MixedResumeAndCallbackEntriesKeepPostOrder) {
  // Coroutine resumptions and plain callbacks share one queue; ties must
  // still break by enqueue sequence across the two entry kinds.
  Simulation sim;
  std::vector<int> order;
  Event ev(sim);
  sim.spawn([](Event& e, std::vector<int>& out) -> Task {
    co_await e.wait();  // resumed via post_resume at t=1
    out.push_back(1);
  }(ev, order));
  sim.run();  // park the waiter
  sim.post(Duration::seconds(1.0), [&] {
    ev.set();                                            // seq A: resume enqueued
    sim.post(Duration::zero(), [&] { order.push_back(2); });  // seq A+1
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(InlineEvents, PendingZeroDelayPostsReleasedOnTeardown) {
  // A zero-delay post *owns* its captures, so destroying the simulation
  // with the post still pending must free them (a raw pointer in the
  // capture would leak; ASan/LSan in CI catches that).
  struct Tracer {
    bool* destroyed;
    ~Tracer() { *destroyed = true; }
  };
  bool destroyed = false;
  {
    Simulation sim;
    sim.post(Duration::zero(),
             [owned = std::make_unique<Tracer>(&destroyed)]() mutable { owned.reset(); });
    // Destroy with the event still pending: never run.
  }
  EXPECT_TRUE(destroyed) << "pending event callback leaked its payload";
}

TEST(InlineEvents, NotifierTeardownWithPendingRetirePostIsClean) {
  // Teardown through Notifier: notify_all() leaves the woken waiter's
  // resumption pending; destroying the simulation before it runs must
  // free the waiter's coroutine frame without resuming it.
  auto sim = std::make_unique<Simulation>();
  Notifier notifier(*sim);
  sim->spawn([](Notifier& n) -> Task { co_await n.wait(); }(notifier));
  sim->run();  // park the waiter
  notifier.notify_all();
  sim.reset();  // pending wake-up + suspended waiter: no leak under ASan
}

TEST(InlineEvents, BarrierTeardownWithPendingRetirePostIsClean) {
  // Teardown through Barrier: one party is parked, the second party's
  // spawn is still pending; destroying the simulation frees both frames.
  auto sim = std::make_unique<Simulation>();
  Barrier barrier(*sim, 2);
  sim->spawn([](Barrier& b) -> Task { co_await b.arrive_and_wait(); }(barrier));
  sim->run();  // first party parks
  sim->spawn([](Barrier& b) -> Task { co_await b.arrive_and_wait(); }(barrier));
  sim.reset();  // no leak
}

// --- Task frame pool ---------------------------------------------------------

TEST(FramePool, ReleasedBlockGoesToTheNextFrameOfItsSizeClass) {
  void* block = detail::allocate_frame(100);  // the 65..128-byte class
  detail::free_frame(block, 100);
  void* other_class = detail::allocate_frame(200);
  EXPECT_NE(other_class, block);
  void* same_class = detail::allocate_frame(65);
  EXPECT_EQ(same_class, block);
  detail::free_frame(same_class, 65);
  detail::free_frame(other_class, 200);
}

TEST(FramePool, TaskFramesOfAWarmSizeClassAreAllocationFree) {
  Simulation sim;
  const auto make = [](Simulation& s) -> Task { co_await s.delay(Duration::nanos(1)); };
  { Task warm = make(sim); }  // the first frame of its size class may come from the heap
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) {
    Task task = make(sim);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "a task frame of a warm size class came from the heap";
}

TEST(FramePool, PooledBlockIsPoisonedUnderAsan) {
  if (__asan_address_is_poisoned == nullptr) {
    GTEST_SKIP() << "not an AddressSanitizer build";
  }
  void* block = detail::allocate_frame(300);
  EXPECT_EQ(__asan_address_is_poisoned(block), 0);
  detail::free_frame(block, 300);
  EXPECT_NE(__asan_address_is_poisoned(block), 0) << "a pooled block is addressable";
  EXPECT_EQ(detail::allocate_frame(300), block);
  EXPECT_EQ(__asan_address_is_poisoned(block), 0) << "a reused block is still poisoned";
  detail::free_frame(block, 300);
}

}  // namespace
}  // namespace nm::sim
