#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace oaq {
namespace {

/// Threads of this process (entries of /proc/self/task), or -1 where the
/// directory does not exist.
int process_threads() {
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::exists(tasks)) return -1;
  return static_cast<int>(
      std::distance(std::filesystem::directory_iterator(tasks),
                    std::filesystem::directory_iterator()));
}

TEST(ParallelJobs, HardwareDetectionIsPositive) {
  EXPECT_GE(hardware_jobs(), 1);
}

TEST(ParallelJobs, ExplicitRequestWins) {
  ::setenv("OAQ_JOBS", "3", 1);
  EXPECT_EQ(resolve_jobs(5), 5);
  EXPECT_EQ(resolve_jobs(1), 1);
  ::unsetenv("OAQ_JOBS");
}

TEST(ParallelJobs, EnvOverridesAuto) {
  ::setenv("OAQ_JOBS", "3", 1);
  EXPECT_EQ(env_jobs(), 3);
  EXPECT_EQ(resolve_jobs(0), 3);
  ::unsetenv("OAQ_JOBS");
  EXPECT_EQ(env_jobs(), 0);
  EXPECT_EQ(resolve_jobs(0), hardware_jobs());
}

TEST(ParallelJobs, MalformedEnvIsIgnored) {
  for (const char* bad : {"", "zero", "-2", "0"}) {
    ::setenv("OAQ_JOBS", bad, 1);
    EXPECT_EQ(env_jobs(), 0) << "OAQ_JOBS=" << bad;
  }
  ::unsetenv("OAQ_JOBS");
}

TEST(ParallelThreadPool, ForEachShardRunsEveryShardOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(97);
  pool.for_each_shard(97, 4, [&](int s) { ++hits[static_cast<size_t>(s)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelThreadPool, MoreJobsThanShardsIsFine) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.for_each_shard(3, 16, [&](int) { ++total; });
  EXPECT_EQ(total.load(), 3);
}

TEST(ParallelThreadPool, PropagatesShardException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.for_each_shard(16, 4,
                                   [&](int s) {
                                     if (s == 5) throw std::runtime_error("boom");
                                     ++completed;
                                   }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 15);  // the other shards still ran
}

TEST(ParallelShardRange, PartitionsExhaustivelyAndContiguously) {
  for (const std::int64_t n : {1L, 7L, 64L, 1000L, 20001L}) {
    for (const int shards : {1, 3, 8, 64}) {
      if (shards > n) continue;
      std::int64_t expected_begin = 0;
      for (int s = 0; s < shards; ++s) {
        const auto [b, e] = shard_range(n, shards, s);
        EXPECT_EQ(b, expected_begin);
        EXPECT_LT(b, e);  // balanced split never produces an empty shard
        expected_begin = e;
      }
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST(ParallelReduce, MatchesSerialSumForAnyJobsAndShards) {
  const std::int64_t n = 20001;
  const std::int64_t expected = n * (n - 1) / 2;
  for (const int shards : {1, 3, 16, 64}) {
    for (const int jobs : {1, 2, 4, 8}) {
      const auto sum = parallel_reduce<std::int64_t>(
          n, shards, jobs,
          [](std::int64_t begin, std::int64_t end, int) {
            std::int64_t s = 0;
            for (std::int64_t i = begin; i < end; ++i) s += i;
            return s;
          },
          [](std::int64_t& into, std::int64_t from) { into += from; });
      EXPECT_EQ(sum, expected) << "shards=" << shards << " jobs=" << jobs;
    }
  }
}

TEST(ParallelReduce, MergesInShardOrder) {
  // Non-commutative merge (concatenation): order-sensitive, so this fails
  // unless shard results are folded strictly left-to-right. Every jobs
  // value takes the same fan-out-then-fold path, so the profile has one
  // timed entry per shard and the fold after them at jobs 1 too.
  for (const int jobs : {1, 4}) {
    ReduceProfile profile;
    const auto order = parallel_reduce<std::vector<int>>(
        48, 16, jobs,
        [](std::int64_t, std::int64_t, int shard) {
          return std::vector<int>{shard};
        },
        [](std::vector<int>& into, std::vector<int>&& from) {
          into.insert(into.end(), from.begin(), from.end());
        },
        &profile);
    std::vector<int> expected(16);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected) << "jobs=" << jobs;
    EXPECT_EQ(profile.jobs_resolved, jobs);
    ASSERT_EQ(profile.shards_used, 16) << "jobs=" << jobs;
    ASSERT_EQ(profile.shards.size(), 16u) << "jobs=" << jobs;
    for (const auto& shard : profile.shards) {
      EXPECT_GE(shard.run_s, 0.0) << "jobs=" << jobs;
      EXPECT_GE(shard.queue_wait_s, 0.0) << "jobs=" << jobs;
    }
    EXPECT_GE(profile.merge_s, 0.0) << "jobs=" << jobs;
    EXPECT_GE(profile.total_s, profile.seed_s + profile.merge_s)
        << "jobs=" << jobs;
  }
}

TEST(ParallelReduce, PropagatesMapException) {
  for (const int jobs : {1, 4}) {
    EXPECT_THROW(static_cast<void>(parallel_reduce<int>(
                     16, 8, jobs,
                     [](std::int64_t b, std::int64_t, int) -> int {
                       if (b >= 8) throw std::runtime_error("map failed");
                       return 0;
                     },
                     [](int& into, int from) { into += from; })),
                 std::runtime_error)
        << "jobs=" << jobs;
  }
}

TEST(ParallelReduce, SingleItemCollapsesToOneShard) {
  const auto v = parallel_reduce<int>(
      1, 64, 8, [](std::int64_t b, std::int64_t e, int) {
        return static_cast<int>(e - b);
      },
      [](int& into, int from) { into += from; });
  EXPECT_EQ(v, 1);
}

TEST(ParallelReduce, SeedHookGetsResolvedJobsBeforeShardClamp) {
  // The hook's seed may fan out on its own, so it sees the run's executor
  // count, not the one left after clamping to the shard count: a
  // one-item run at jobs 4 still seeds on 4. Handing the hook the clamped
  // `jobs` makes it read 1 there. Neither run may create the process-wide
  // pool: one executor runs its shards inline. (The thread check bites
  // when this test runs in its own process, as CTest runs it; in a full
  // binary run an earlier test may have created the pool already.)
  const auto caller = std::this_thread::get_id();
  const int threads_before = process_threads();
  for (const auto& [n_items, jobs] : {std::pair{1, 4}, std::pair{8, 1}}) {
    int seeded_with = 0;
    bool frozen = false;
    std::vector<std::thread::id> ran_on;
    SeedFreezeHook hook;
    hook.seed = [&](int seed_jobs) { seeded_with = seed_jobs; };
    hook.freeze = [&] { frozen = true; };
    ReduceProfile profile;
    const auto v = parallel_reduce<int>(
        n_items, 8, jobs,
        [&](std::int64_t b, std::int64_t e, int) {
          ran_on.push_back(std::this_thread::get_id());
          return static_cast<int>(e - b);
        },
        [](int& into, int from) { into += from; }, &profile, &hook);
    EXPECT_EQ(v, n_items);
    EXPECT_EQ(seeded_with, jobs) << "jobs=" << jobs;
    EXPECT_TRUE(frozen);
    // The shards themselves still run on the clamped count.
    EXPECT_EQ(profile.jobs_resolved, 1) << "jobs=" << jobs;
    // Either way one executor ran every shard; at jobs 1 that is the
    // calling thread, so nothing was handed to the pool.
    ASSERT_EQ(ran_on.size(), static_cast<std::size_t>(n_items));
    if (jobs == 1) {
      for (const auto& id : ran_on) EXPECT_EQ(id, caller);
    }
  }
  EXPECT_EQ(process_threads(), threads_before)
      << "a one-executor run started pool workers";
}

TEST(ParallelReduce, RejectsEmptyInput) {
  const auto noop_map = [](std::int64_t, std::int64_t, int) { return 0; };
  const auto noop_merge = [](int& into, int from) { into += from; };
  EXPECT_THROW((void)parallel_reduce<int>(0, 4, 1, noop_map, noop_merge),
               PreconditionError);
  EXPECT_THROW((void)parallel_reduce<int>(4, 0, 1, noop_map, noop_merge),
               PreconditionError);
}

}  // namespace
}  // namespace oaq
