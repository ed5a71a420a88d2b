// Fixed-size thread pool and deterministic parallel reduction.
//
// The Monte-Carlo harnesses (oaq/montecarlo, oaq/campaign) and every sweep
// bench built on them fan work out through `parallel_reduce`. The contract
// that makes this safe for regression-tested simulations:
//
//   * The shard decomposition depends only on (n_items, n_shards), never on
//     the worker count, and shard results are merged sequentially in shard
//     order on the calling thread. A caller whose per-item computation is
//     order-independent (e.g. per-episode RNG streams derived by
//     `Rng::fork(item)`) therefore gets BIT-IDENTICAL results for any
//     `jobs` value — threads only change which worker computes a shard.
//   * Every run takes one path: its shards fan out through `run_shards`,
//     then fold in shard order. At one executor (or one shard) the shards
//     run inline on the calling thread, one after another, and the
//     process-wide pool is never created.
//
// Worker count resolution (`resolve_jobs`): an explicit positive request
// wins; otherwise the OAQ_JOBS environment variable; otherwise hardware
// concurrency. The shared pool is lazily created and lives for the process.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace oaq {

/// Detected hardware concurrency, at least 1.
[[nodiscard]] int hardware_jobs();

/// OAQ_JOBS environment override clamped to [1, 1024]; 0 when unset/invalid.
[[nodiscard]] int env_jobs();

/// Worker count for a run: `requested` if positive, else OAQ_JOBS, else
/// hardware concurrency.
[[nodiscard]] int resolve_jobs(int requested);

/// Fixed-size worker pool. Construction spawns the workers; destruction
/// drains the queue and joins them. Tasks must not block on other queued
/// tasks (shard pulling below never does).
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Run `shard_fn(s)` for every s in [0, n_shards) using at most `jobs`
  /// concurrent executors (the caller participates as one of them) and
  /// block until all shards completed. The first exception thrown by a
  /// shard is rethrown on the calling thread after completion.
  void for_each_shard(int n_shards, int jobs,
                      const std::function<void(int)>& shard_fn);

  /// Process-wide pool shared by all simulations. Sized so that at least
  /// max(hardware, OAQ_JOBS, 4) executors (pool workers + the caller) are
  /// available — the floor keeps multi-thread determinism tests honest on
  /// small CI machines.
  [[nodiscard]] static ThreadPool& global();

 private:
  /// Enqueue a task for any worker (fire-and-forget).
  void submit(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Run `shard_fn(s)` for every s in [0, n_shards) on up to `jobs`
/// executors and return once all ran. At one executor or at most one shard
/// the shards run inline, in order, on the calling thread, and
/// ThreadPool::global() is never called; otherwise they fan out over the
/// global pool (ThreadPool::for_each_shard).
void run_shards(int n_shards, int jobs,
                const std::function<void(int)>& shard_fn);

/// Half-open item range covered by shard `s` of `n_shards` over `n_items`:
/// contiguous, exhaustive, and balanced to within one item.
[[nodiscard]] constexpr std::pair<std::int64_t, std::int64_t> shard_range(
    std::int64_t n_items, int n_shards, int s) {
  const auto shards = static_cast<std::int64_t>(n_shards);
  return {n_items * s / shards, n_items * (s + 1) / shards};
}

/// Wall-clock profile of one parallel_reduce call: how long each shard
/// waited for an executor (queue wait, from dispatch to shard start) and
/// ran, plus the sequential merge and the whole call. Filled when a
/// profile pointer is passed to `parallel_reduce`; shard entries are
/// written by the worker that runs the shard (one writer per slot, no
/// synchronization needed) and kept in shard order. At one executor the
/// shards run back to back, so a shard's queue wait is the run time of
/// the shards before it, and `merge_s` is the one shard-order fold after
/// the last shard ran, as at any other count.
///
/// Unlike the reduction *results*, wall times are not deterministic — the
/// profile is a performance observation, emitted in the repo's BENCH_JSON
/// style by `write_bench_json`.
struct ReduceProfile {
  struct ShardTiming {
    double queue_wait_s = 0.0;
    double run_s = 0.0;
  };
  int jobs_resolved = 0;  ///< executors actually used
  int shards_used = 0;    ///< after the n_items clamp
  double total_s = 0.0;   ///< whole parallel_reduce call
  double seed_s = 0.0;    ///< SeedFreezeHook seed+freeze, before fan-out
  double merge_s = 0.0;   ///< shard-order fold after the fan-out
  std::vector<ShardTiming> shards;  ///< indexed by shard

  [[nodiscard]] double max_shard_run_s() const;
  [[nodiscard]] double sum_shard_run_s() const;
  [[nodiscard]] double sum_queue_wait_s() const;

  /// One-line machine-readable summary:
  ///   BENCH_JSON {"bench":<name>,"jobs":..,"shards":[...],...}
  /// (the caller prints the "BENCH_JSON " prefix convention via this).
  void write_bench_json(std::ostream& os, std::string_view bench_name) const;
};

/// Pre-fan-out hook for shared read-mostly state (e.g. the
/// SharedVisibilityCache seed/freeze protocol): `seed` builds the shared
/// state and `freeze` publishes it read-only. Both are called back-to-back
/// FROM THE CALLING THREAD before any shard's `map` is dispatched, so
/// every shard observes the frozen state without synchronizing. `seed`
/// receives the run's resolved executor count (before the shard clamp) and
/// may fan its own work out over that many executors with `run_shards`,
/// provided the state it builds does not depend on the count; at 1 it must
/// run inline. Null members are skipped.
struct SeedFreezeHook {
  std::function<void(int jobs)> seed;
  std::function<void()> freeze;
};

/// Map-reduce over [0, n_items): each shard builds a private `Accum` via
/// `map(begin, end, shard)`, and shards are folded left-to-right with
/// `merge(into, from)` on the calling thread once every shard ran.
/// Deterministic in `jobs` (see file header). A non-null `profile`
/// receives wall-clock timings (which never influence the result). A
/// non-null `hook` runs seed-then-freeze from the calling thread before
/// any shard starts (timed into profile->seed_s); its seed gets
/// resolve_jobs(jobs) unclamped, so a run with fewer shards than
/// executors (a 1-replication campaign) still seeds on all of them.
template <typename Accum, typename MapFn, typename MergeFn>
[[nodiscard]] Accum parallel_reduce(std::int64_t n_items, int n_shards,
                                    int jobs, MapFn&& map, MergeFn&& merge,
                                    ReduceProfile* profile = nullptr,
                                    const SeedFreezeHook* hook = nullptr) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  OAQ_REQUIRE(n_items > 0, "parallel_reduce needs at least one item");
  OAQ_REQUIRE(n_shards > 0, "parallel_reduce needs at least one shard");
  if (n_shards > n_items) n_shards = static_cast<int>(n_items);
  const int run_jobs = resolve_jobs(jobs);
  jobs = std::min(run_jobs, n_shards);

  const auto t_start = Clock::now();
  if (profile != nullptr) {
    profile->jobs_resolved = jobs;
    profile->shards_used = n_shards;
    profile->seed_s = 0.0;
    profile->shards.assign(static_cast<std::size_t>(n_shards), {});
  }

  if (hook != nullptr) {
    if (hook->seed) hook->seed(run_jobs);
    if (hook->freeze) hook->freeze();
    if (profile != nullptr) {
      profile->seed_s = seconds_between(t_start, Clock::now());
    }
  }
  // Shard timings start after the hook: they must not absorb the
  // seed/freeze wall (it is reported separately as seed_s).
  const auto t_dispatch = Clock::now();

  std::vector<std::optional<Accum>> parts(static_cast<std::size_t>(n_shards));
  run_shards(n_shards, jobs, [&](int s) {
    const auto t_shard = Clock::now();
    auto [b, e] = shard_range(n_items, n_shards, s);
    parts[static_cast<std::size_t>(s)].emplace(map(b, e, s));
    if (profile != nullptr) {
      auto& timing = profile->shards[static_cast<std::size_t>(s)];
      timing.queue_wait_s = seconds_between(t_dispatch, t_shard);
      timing.run_s = seconds_between(t_shard, Clock::now());
    }
  });
  const auto t_fold = Clock::now();
  Accum acc = std::move(*parts[0]);
  for (int s = 1; s < n_shards; ++s) {
    merge(acc, std::move(*parts[static_cast<std::size_t>(s)]));
  }
  if (profile != nullptr) {
    const auto t_end = Clock::now();
    profile->merge_s = seconds_between(t_fold, t_end);
    profile->total_s = seconds_between(t_start, t_end);
  }
  return acc;
}

}  // namespace oaq
