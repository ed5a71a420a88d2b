#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace oaq {
namespace {

TEST(Simulator, StartsAtOriginWithEmptyQueue) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::minutes(3), [&] { order.push_back(3); });
  sim.schedule_after(Duration::minutes(1), [&] { order.push_back(1); });
  sim.schedule_after(Duration::minutes(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().since_origin().to_minutes(), 3.0);
  EXPECT_EQ(sim.processed_count(), 3u);
}

TEST(Simulator, SimultaneousEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const auto t = TimePoint::at(Duration::minutes(5));
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_after(Duration::minutes(7.5),
                     [&] { seen = sim.now().since_origin().to_minutes(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule_after(Duration::minutes(1), chain);
  };
  sim.schedule_after(Duration::minutes(1), chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now().since_origin().to_minutes(), 5.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_after(Duration::minutes(1), [&] { fired = true; });
  EXPECT_TRUE(sim.is_pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.is_pending(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.processed_count(), 0u);
}

TEST(Simulator, CancelOneOfManyLeavesOthers) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::minutes(1), [&] { order.push_back(1); });
  const auto id = sim.schedule_after(Duration::minutes(2),
                                     [&] { order.push_back(2); });
  sim.schedule_after(Duration::minutes(3), [&] { order.push_back(3); });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::minutes(1), [&] { order.push_back(1); });
  sim.schedule_after(Duration::minutes(5), [&] { order.push_back(5); });
  sim.run_until(TimePoint::at(Duration::minutes(3)));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(sim.now().since_origin().to_minutes(), 3.0);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(Duration::minutes(3), [&] { fired = true; });
  sim.run_until(TimePoint::at(Duration::minutes(3)));
  EXPECT_TRUE(fired);
}

TEST(Simulator, RejectsPastSchedulingAndBackwardRun) {
  Simulator sim;
  sim.schedule_after(Duration::minutes(2), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint::at(Duration::minutes(1)), [] {}),
               PreconditionError);
  EXPECT_THROW(sim.schedule_after(Duration::minutes(-1), [] {}),
               PreconditionError);
  EXPECT_THROW(sim.run_until(TimePoint::at(Duration::minutes(1))),
               PreconditionError);
  EXPECT_THROW(sim.schedule_after(Duration::minutes(1), nullptr),
               PreconditionError);
}

TEST(Simulator, MaxEventsBoundsRunawayChains) {
  Simulator sim;
  std::uint64_t fired = 0;
  std::function<void()> forever = [&] {
    ++fired;
    sim.schedule_after(Duration::minutes(1), forever);
  };
  sim.schedule_after(Duration::minutes(1), forever);
  sim.run(100);
  EXPECT_EQ(fired, 100u);
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(Simulator, CancelInsideEventCallback) {
  Simulator sim;
  bool second_fired = false;
  EventId second{};
  second = sim.schedule_after(Duration::minutes(2),
                              [&] { second_fired = true; });
  sim.schedule_after(Duration::minutes(1), [&] { sim.cancel(second); });
  sim.run();
  EXPECT_FALSE(second_fired);
}

// --- Semantics locked before the pooled-kernel rewrite. These pin the
// exact contract (cancel visibility, FIFO ties, clock advance, gauge
// behaviour) that the old and new kernels must share. ---

TEST(Simulator, CancelDuringCallbackOfSimultaneousEvent) {
  // Two events at the SAME timestamp: the first one's callback cancels the
  // second, which must then not fire even though it is already at the top
  // of the queue region being drained.
  Simulator sim;
  bool second_fired = false;
  const auto t = TimePoint::at(Duration::minutes(1));
  EventId second{};
  sim.schedule_at(t, [&] { EXPECT_TRUE(sim.cancel(second)); });
  second = sim.schedule_at(t, [&] { second_fired = true; });
  sim.run();
  EXPECT_FALSE(second_fired);
  EXPECT_EQ(sim.processed_count(), 1u);
}

TEST(Simulator, CancelOfAlreadyFiredIdIsNoOp) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.schedule_after(Duration::minutes(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.is_pending(id));
  EXPECT_FALSE(sim.cancel(id));
  // A later event must be unaffected by the stale cancel.
  sim.schedule_after(Duration::minutes(1), [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(id));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, OwnIdNotPendingDuringCallback) {
  // While an event's callback runs, the event has left the pending set:
  // cancelling or querying the own id reports "already fired".
  Simulator sim;
  EventId self{};
  bool checked = false;
  self = sim.schedule_after(Duration::minutes(1), [&] {
    EXPECT_FALSE(sim.is_pending(self));
    EXPECT_FALSE(sim.cancel(self));
    checked = true;
  });
  sim.run();
  EXPECT_TRUE(checked);
}

TEST(Simulator, EqualTimestampFifoSurvivesInterleavedCancels) {
  // FIFO among simultaneous events must hold even when some of the
  // interleaved events are cancelled before the timestamp drains.
  Simulator sim;
  const auto t = TimePoint::at(Duration::minutes(2));
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(sim.schedule_at(t, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 12; i += 3) sim.cancel(ids[static_cast<std::size_t>(i)]);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 7, 8, 10, 11}));
}

TEST(Simulator, ScheduleAtCurrentTimeDuringCallbackFiresAfterQueue) {
  // An event scheduled at now() from inside a callback runs after the
  // events already queued at that timestamp (sequence order).
  Simulator sim;
  const auto t = TimePoint::at(Duration::minutes(1));
  std::vector<int> order;
  sim.schedule_at(t, [&] {
    order.push_back(0);
    sim.schedule_at(sim.now(), [&] { order.push_back(2); });
  });
  sim.schedule_at(t, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, RunUntilAdvancesClockPastCancelledTail) {
  // run_until must advance the clock to the boundary even when every
  // remaining event beneath it was cancelled.
  Simulator sim;
  const auto id = sim.schedule_after(Duration::minutes(2), [] {});
  sim.cancel(id);
  sim.run_until(TimePoint::at(Duration::minutes(4)));
  EXPECT_DOUBLE_EQ(sim.now().since_origin().to_minutes(), 4.0);
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.processed_count(), 0u);
  // And scheduling before the advanced clock must now throw.
  EXPECT_THROW(sim.schedule_at(TimePoint::at(Duration::minutes(3)), [] {}),
               PreconditionError);
}

TEST(Simulator, RunUntilOnEmptyQueueStillAdvancesClock) {
  Simulator sim;
  sim.run_until(TimePoint::at(Duration::minutes(9)));
  EXPECT_DOUBLE_EQ(sim.now().since_origin().to_minutes(), 9.0);
}

TEST(Simulator, PeakPendingTracksHighWaterMonotonically) {
  Simulator sim;
  EXPECT_EQ(sim.peak_pending_count(), 0u);
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sim.schedule_after(Duration::minutes(i + 1), [] {}));
    EXPECT_EQ(sim.peak_pending_count(), static_cast<std::size_t>(i + 1));
  }
  // Cancelling shrinks the pending set but never the high-water mark.
  sim.cancel(ids[0]);
  sim.cancel(ids[1]);
  EXPECT_EQ(sim.pending_count(), 6u);
  EXPECT_EQ(sim.peak_pending_count(), 8u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.peak_pending_count(), 8u);
  // Refilling below the mark leaves it unchanged; exceeding it moves it.
  for (int i = 0; i < 9; ++i) {
    sim.schedule_after(Duration::minutes(i + 1), [] {});
  }
  EXPECT_EQ(sim.peak_pending_count(), 9u);
}

TEST(Simulator, IdsStayDistinctAcrossHeavyChurn) {
  // Schedule/cancel/fire churn must never produce an id that aliases a
  // live event (the generation-tag contract of the pooled kernel).
  Simulator sim;
  std::vector<EventId> live;
  int fired = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 8; ++i) {
      live.push_back(
          sim.schedule_after(Duration::seconds(1 + (round + i) % 7),
                             [&] { ++fired; }));
    }
    // Cancel half; every cancel must report success exactly once.
    for (std::size_t i = 0; i < live.size(); i += 2) {
      EXPECT_TRUE(sim.cancel(live[i]));
      EXPECT_FALSE(sim.cancel(live[i]));
    }
    sim.run();
    for (const auto id : live) EXPECT_FALSE(sim.is_pending(id));
    live.clear();
  }
  EXPECT_EQ(fired, 200 * 4);
}

// --- reset() equivalence property (ISSUE 9). The episode context leans
// on reset() between episodes, so a reused kernel must be indistinguishable
// from a fresh one — same event order AND same accounting, since the
// kernel's counters feed the deterministic metrics export. ---

/// One randomized episode driven against a simulator: schedules bursts of
/// events (some at equal timestamps, some chained from callbacks), cancels
/// a random subset, fires part of the timeline with run_until, then drains.
/// Returns the fired-event log as "seq@time" strings.
std::vector<std::string> random_episode(Simulator& sim, Rng rng) {
  std::vector<std::string> fired;
  std::vector<EventId> ids;
  const int bursts = 3 + static_cast<int>(rng.uniform_index(3));
  int label = 0;
  for (int burst = 0; burst < bursts; ++burst) {
    const int events = 4 + static_cast<int>(rng.uniform_index(12));
    const double base =
        sim.now().since_origin().to_seconds() + rng.uniform(0.0, 30.0);
    for (int i = 0; i < events; ++i) {
      // Half the events share the burst timestamp to exercise FIFO ties.
      const double at = rng.bernoulli(0.5) ? base : base + rng.uniform(0.0, 60.0);
      const int id = label++;
      Rng chain_rng = rng.fork(static_cast<std::uint64_t>(id));
      ids.push_back(sim.schedule_at(
          TimePoint::at(Duration::seconds(at)), [&sim, &fired, id, chain_rng] {
            fired.push_back(std::to_string(id) + "@" +
                            std::to_string(sim.now().since_origin().to_seconds()));
            Rng r = chain_rng;
            if (r.bernoulli(0.4)) {
              const int child = -id - 1;  // distinct label space for chains
              sim.schedule_after(Duration::seconds(r.uniform(0.0, 10.0)),
                                 [&sim, &fired, child] {
                                   fired.push_back(
                                       std::to_string(child) + "@" +
                                       std::to_string(
                                           sim.now().since_origin().to_seconds()));
                                 });
            }
          }));
    }
    // Cancel a random subset (stale cancels of fired ids are no-ops).
    for (const auto id : ids) {
      if (rng.bernoulli(0.25)) sim.cancel(id);
    }
    // Fire part of the timeline before the next scheduling burst so bursts
    // land both on an empty queue and mid-drain.
    sim.run_until(TimePoint::at(
        Duration::seconds(sim.now().since_origin().to_seconds() +
                          rng.uniform(0.0, 45.0))));
  }
  sim.run();
  return fired;
}

TEST(Simulator, ResetEquivalentToFreshAcrossRandomizedCycles) {
  // One long-lived simulator is reset between randomized episodes; each
  // episode must replay what a fresh simulator produces — same fired-event
  // log, same clock, same accounting (reset zeroes the counters, so a
  // reused kernel's telemetry is a pure function of the episode, not of
  // how many episodes came before — the metrics-determinism contract).
  Simulator reused;
  for (int cycle = 0; cycle < 25; ++cycle) {
    const Rng episode_rng = Rng(991).fork(static_cast<std::uint64_t>(cycle));
    Simulator fresh;
    const auto fresh_fired = random_episode(fresh, episode_rng);
    const auto reused_fired = random_episode(reused, episode_rng);
    EXPECT_EQ(reused_fired, fresh_fired) << "cycle " << cycle;
    EXPECT_EQ(reused.now().since_origin().to_seconds(),
              fresh.now().since_origin().to_seconds())
        << "cycle " << cycle;

    const SimAccounting fa = fresh.accounting();
    const SimAccounting ra = reused.accounting();
    EXPECT_EQ(ra.scheduled, fa.scheduled) << "cycle " << cycle;
    EXPECT_EQ(ra.processed, fa.processed) << "cycle " << cycle;
    EXPECT_EQ(ra.cancelled, fa.cancelled) << "cycle " << cycle;
    EXPECT_EQ(ra.pending, 0u) << "cycle " << cycle;
    EXPECT_EQ(reused.peak_pending_count(), fresh.peak_pending_count())
        << "cycle " << cycle;

    reused.reset();
  }
}

}  // namespace
}  // namespace oaq
