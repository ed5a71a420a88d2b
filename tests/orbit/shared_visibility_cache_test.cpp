// SharedVisibilityCache seed/freeze contract: seeded windows and uncached
// post-freeze misses both equal an uncached PassPredictor sweep of the
// quantized window, clipped to the request, and hit accounting is
// independent of cross-thread timing. Built into test_geometry, which the
// ThreadSanitizer CI job runs to certify concurrent frozen reads
// data-race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "orbit/constellation.hpp"
#include "orbit/shared_visibility_cache.hpp"

namespace oaq {
namespace {

Constellation test_constellation() {
  ConstellationDesign design;
  design.num_planes = 2;
  design.sats_per_plane = 8;
  design.inclination_rad = deg2rad(85.0);
  return Constellation(design);
}

std::vector<GeoPoint> test_targets() {
  return {{0.1, 0.2}, {0.8, -1.1}, {-0.5, 2.4}, {1.2, 0.0},
          {0.0, -2.9}, {0.4, 1.7}, {-1.0, -0.3}, {0.9, 3.0}};
}

/// Reference answer: PassPredictor::passes over the quantum-aligned window
/// enclosing [from, to] (from clamped to 0), clipped to the request.
std::vector<Pass> reference_passes(const PassPredictor& predictor,
                                   const VisibilityCacheOptions& opt,
                                   const GeoPoint& target, Duration from,
                                   Duration to) {
  const Duration f = std::max(from, Duration::zero());
  if (to <= f) return {};
  const double q = opt.window_quantum.to_seconds();
  const Duration q_from =
      Duration::seconds(std::floor(f.to_seconds() / q) * q);
  const Duration q_to = Duration::seconds(std::ceil(to.to_seconds() / q) * q);
  std::vector<Pass> out;
  for (const Pass& p : predictor.passes(target, q_from, q_to, opt.tol)) {
    if (p.end <= f || p.start >= to) continue;
    out.push_back({p.satellite, std::max(p.start, f), std::min(p.end, to)});
  }
  return out;
}

bool same_passes(const std::vector<Pass>& a, const std::vector<Pass>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].satellite != b[i].satellite ||
        a[i].start.to_seconds() != b[i].start.to_seconds() ||
        a[i].end.to_seconds() != b[i].end.to_seconds()) {
      return false;
    }
  }
  return true;
}

TEST(SharedVisibilityCache, MatchesFreshVisibilityCacheExactly) {
  const Constellation c = test_constellation();
  VisibilityCacheOptions opt;
  opt.window_quantum = Duration::minutes(45);

  SharedVisibilityCache shared(c, true, opt);
  const PassPredictor predictor(c, true);

  const GeoPoint target{0.3, -0.7};
  shared.seed_window(target, Duration::zero(), Duration::hours(2));
  shared.freeze();
  EXPECT_TRUE(shared.frozen());
  EXPECT_EQ(shared.frozen_entries(), 1u);

  // Two queries quantize to the seeded window (hits); the short
  // clamped-negative one and the shifted one quantize to different keys
  // (uncached misses) — all must equal the reference sweep either way.
  const std::vector<std::pair<Duration, Duration>> windows = {
      {Duration::zero(), Duration::hours(2)},
      {Duration::minutes(10), Duration::minutes(95)},
      {Duration::seconds(-50.0), Duration::minutes(30)},
      {Duration::hours(3), Duration::hours(5)},
  };
  VisibilityCacheStats stats;
  std::size_t total = 0;
  for (const auto& [from, to] : windows) {
    const std::vector<Pass> got = shared.passes_window(target, from, to, &stats);
    const std::vector<Pass> want =
        reference_passes(predictor, opt, target, from, to);
    EXPECT_TRUE(same_passes(got, want)) << "window " << from.to_seconds();
    total += want.size();
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(stats.pass_queries, 4u);
  EXPECT_EQ(stats.pass_hits, 2u);
  // Misses are not cached: the published map is exactly the seeded set.
  EXPECT_EQ(shared.frozen_entries(), 1u);
}

TEST(SharedVisibilityCache, EmptyWindowAfterClampReturnsNothing) {
  const Constellation c = test_constellation();
  SharedVisibilityCache shared(c, false);
  shared.freeze();
  VisibilityCacheStats stats;
  const std::vector<Pass> got = shared.passes_window(
      {0.1, 0.1}, Duration::seconds(-100.0), Duration::seconds(-1.0), &stats);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(stats.pass_queries, 0u);  // clamped-empty windows are free
}

TEST(SharedVisibilityCache, RejectsBadOptionsAndPhaseOrder) {
  const Constellation c = test_constellation();
  VisibilityCacheOptions bad;
  bad.window_quantum = Duration::zero();
  EXPECT_THROW(SharedVisibilityCache(c, false, bad), PreconditionError);
  bad = {};
  bad.tol = Duration::zero();
  EXPECT_THROW(SharedVisibilityCache(c, false, bad), PreconditionError);

  SharedVisibilityCache shared(c, false);
  const GeoPoint target{0.0, 0.0};
  EXPECT_THROW((void)shared.passes_window(target, Duration::zero(),
                                          Duration::hours(1)),
               PreconditionError);  // query before freeze
  EXPECT_THROW((void)shared.frozen_entries(), PreconditionError);
  shared.freeze();
  EXPECT_THROW(shared.freeze(), PreconditionError);
  EXPECT_THROW(
      shared.seed_window(target, Duration::zero(), Duration::hours(1)),
      PreconditionError);  // seed after freeze
  EXPECT_THROW((void)shared.passes_window(target, Duration::minutes(5),
                                          Duration::minutes(5)),
               PreconditionError);  // empty request
}

TEST(SharedVisibilityCache, SeedThenConcurrentFrozenReads) {
  const Constellation c = test_constellation();
  VisibilityCacheOptions opt;
  opt.window_quantum = Duration::minutes(30);
  SharedVisibilityCache shared(c, true, opt);
  const PassPredictor predictor(c, true);
  const std::vector<GeoPoint> targets = test_targets();

  // Phase 1: single-threaded seeding; a repeated window is computed once.
  for (const GeoPoint& target : targets) {
    shared.seed_window(target, Duration::zero(), Duration::hours(1));
    shared.seed_window(target, Duration::minutes(10), Duration::minutes(50));
  }
  shared.freeze();
  ASSERT_EQ(shared.frozen_entries(), targets.size());

  // Phase 2: concurrent frozen reads (hits) plus uncached misses beyond the
  // seeded horizon. Every thread must observe the reference values, with
  // per-thread stats counting hits only for seeded windows.
  std::vector<VisibilityCacheStats> stats(4);
  std::vector<int> mismatches(4, 0);
  {
    std::vector<std::thread> readers;
    for (int th = 0; th < 4; ++th) {
      readers.emplace_back([&, th] {
        std::vector<Pass> got;
        for (int rep = 0; rep < 3; ++rep) {
          for (const GeoPoint& target : targets) {
            shared.passes_window_into(target, Duration::minutes(5),
                                      Duration::minutes(50), got, &stats[th]);
            if (!same_passes(got, reference_passes(predictor, opt, target,
                                                   Duration::minutes(5),
                                                   Duration::minutes(50)))) {
              ++mismatches[th];
            }
            // Miss: same shape, shifted past the seeded hour.
            shared.passes_window_into(target, Duration::hours(2),
                                      Duration::hours(3), got, &stats[th]);
            if (!same_passes(got, reference_passes(predictor, opt, target,
                                                   Duration::hours(2),
                                                   Duration::hours(3)))) {
              ++mismatches[th];
            }
          }
        }
      });
    }
    for (auto& t : readers) t.join();
  }
  for (int th = 0; th < 4; ++th) {
    EXPECT_EQ(mismatches[th], 0) << "thread " << th;
    EXPECT_EQ(stats[th].pass_queries, 3u * 2u * targets.size());
    // Seeded windows hit, the shifted windows miss — on every thread.
    EXPECT_EQ(stats[th].pass_hits, 3u * targets.size());
  }
  EXPECT_EQ(shared.frozen_entries(), targets.size());
}

}  // namespace
}  // namespace oaq
