// Differential test of the DES kernel against a brute-force reference.
//
// Random sequences of schedule / cancel / step / run_until / drain + reset
// drive a Simulator and a std::set of (time, seq) keys side by side; the
// set's minimum is by construction the event the kernel must fire next.
// After every operation the fired-event order, the clock, is_pending of
// every id ever issued, peak_pending_count and the SimAccounting balance
// must agree. Event times sit on a coarse grid, so many events share a
// timestamp and the scheduling-order tie-break decides their order: a
// kernel that orders by time alone fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace oaq {
namespace {

/// One event issued to the kernel, as the reference tracks it.
struct Issued {
  EventId id;
  double at = 0.0;
  std::uint64_t seq = 0;
  bool pending = true;
  int child = -1;  ///< label of the event its callback schedules, if any
};

class Differential {
 public:
  explicit Differential(Rng rng) : rng_(rng) {}

  /// Schedule a new event at `at` on both sides.
  void schedule(double at) {
    const int label = issue(at);
    issued_[static_cast<std::size_t>(label)].id = arm(label);
  }

  /// Cancel a random id ever issued: pending, fired or already cancelled.
  void cancel_any() {
    if (issued_.empty()) return;
    const auto label = static_cast<int>(rng_.uniform_index(issued_.size()));
    Issued& e = issued_[static_cast<std::size_t>(label)];
    const bool expect = e.pending;
    if (expect) {
      pending_.erase({e.at, e.seq, label});
      e.pending = false;
      ++cancelled_;
    }
    EXPECT_EQ(sim_.cancel(e.id), expect) << "cancel of event " << label;
  }

  void step() {
    const bool expect = !pending_.empty();
    if (expect) pop_expected();
    EXPECT_EQ(sim_.step(), expect);
  }

  void run_until(double t) {
    while (!pending_.empty() && std::get<0>(*pending_.begin()) <= t) {
      pop_expected();
    }
    now_ = t;
    sim_.run_until(TimePoint::at(Duration::seconds(t)));
  }

  /// Drain, check, then reset both sides: the kernel restarts its clock,
  /// sequence and counters, and no earlier id may read as pending.
  void drain_and_reset() {
    while (!pending_.empty()) pop_expected();
    sim_.run();
    check();
    sim_.reset();
    now_ = 0.0;
    next_seq_ = 1;
    scheduled_ = processed_ = cancelled_ = 0;
    peak_ = 0;
  }

  /// A time at or after the clock on a 0.25 s grid.
  double random_time() {
    return now_ + 0.25 * static_cast<double>(rng_.uniform_index(40));
  }

  void check() const {
    ASSERT_EQ(fired_, expected_fired_);
    ASSERT_EQ(sim_.now().since_origin().to_seconds(), now_);
    for (std::size_t i = 0; i < issued_.size(); ++i) {
      ASSERT_EQ(sim_.is_pending(issued_[i].id), issued_[i].pending)
          << "event " << i;
    }
    const SimAccounting a = sim_.accounting();
    ASSERT_EQ(a.scheduled, scheduled_);
    ASSERT_EQ(a.processed, processed_);
    ASSERT_EQ(a.cancelled, cancelled_);
    ASSERT_EQ(a.pending, pending_.size());
    ASSERT_EQ(sim_.pending_count(), pending_.size());
    ASSERT_EQ(sim_.processed_count(), processed_);
    ASSERT_EQ(sim_.peak_pending_count(), peak_);
  }

  Rng& rng() { return rng_; }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

 private:
  /// Reference side of a schedule: a new label with the next sequence.
  int issue(double at) {
    const int label = static_cast<int>(issued_.size());
    issued_.push_back({EventId{}, at, next_seq_++, true, -1});
    pending_.insert({at, issued_.back().seq, label});
    ++scheduled_;
    if (pending_.size() > peak_) peak_ = pending_.size();
    return label;
  }

  /// Kernel side of a schedule. The callback logs its label and, when the
  /// reference gave it a child, schedules that child from inside the
  /// callback (often at the current time: a same-time FIFO tie).
  EventId arm(int label) {
    const Issued& e = issued_[static_cast<std::size_t>(label)];
    return sim_.schedule_at(TimePoint::at(Duration::seconds(e.at)),
                            [this, label] {
                              fired_.push_back(label);
                              const int child =
                                  issued_[static_cast<std::size_t>(label)]
                                      .child;
                              if (child >= 0) {
                                issued_[static_cast<std::size_t>(child)].id =
                                    arm(child);
                              }
                            });
  }

  /// Reference step: fire the (time, seq) minimum. Every third event
  /// schedules a child 0, 0.25, 0.5 or 0.75 s later; the child takes the
  /// next sequence number, as it does in the kernel's callback.
  void pop_expected() {
    const auto [at, seq, label] = *pending_.begin();
    pending_.erase(pending_.begin());
    issued_[static_cast<std::size_t>(label)].pending = false;
    expected_fired_.push_back(label);
    now_ = at;
    ++processed_;
    if (label % 3 == 0) {
      const int child = issue(at + 0.25 * static_cast<double>(label % 4));
      issued_[static_cast<std::size_t>(label)].child = child;
    }
  }

  Rng rng_;
  Simulator sim_;
  std::vector<Issued> issued_;
  std::set<std::tuple<double, std::uint64_t, int>> pending_;
  std::vector<int> fired_;
  std::vector<int> expected_fired_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t peak_ = 0;
};

TEST(SimulatorDifferential, MatchesOrderedSetReferenceOverRandomOps) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Differential d(Rng(4242).fork(seed));
    for (int op = 0; op < 1500; ++op) {
      const double u = d.rng().uniform01();
      if (u < 0.45) {
        // Bursts build a deep queue; single schedules keep it shallow.
        const int n = d.rng().bernoulli(0.2)
                          ? 1 + static_cast<int>(d.rng().uniform_index(32))
                          : 1;
        for (int i = 0; i < n; ++i) d.schedule(d.random_time());
      } else if (u < 0.65) {
        d.cancel_any();
      } else if (u < 0.85) {
        d.step();
      } else if (u < 0.98) {
        d.run_until(d.random_time());
      } else {
        d.drain_and_reset();
      }
      d.check();
      if (testing::Test::HasFatalFailure()) return;
    }
    d.drain_and_reset();
    EXPECT_EQ(d.pending(), 0u);
  }
}

}  // namespace
}  // namespace oaq
