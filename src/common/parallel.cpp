#include "common/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <ostream>

namespace oaq {

double ReduceProfile::max_shard_run_s() const {
  double out = 0.0;
  for (const auto& s : shards) out = std::max(out, s.run_s);
  return out;
}

double ReduceProfile::sum_shard_run_s() const {
  double out = 0.0;
  for (const auto& s : shards) out += s.run_s;
  return out;
}

double ReduceProfile::sum_queue_wait_s() const {
  double out = 0.0;
  for (const auto& s : shards) out += s.queue_wait_s;
  return out;
}

void ReduceProfile::write_bench_json(std::ostream& os,
                                     std::string_view bench_name) const {
  os << "{\"bench\":\"" << bench_name << "\",\"jobs\":" << jobs_resolved
     << ",\"shards_used\":" << shards_used << ",\"total_s\":" << total_s
     << ",\"seed_s\":" << seed_s << ",\"merge_s\":" << merge_s
     << ",\"shard_run_sum_s\":" << sum_shard_run_s()
     << ",\"shard_run_max_s\":" << max_shard_run_s()
     << ",\"queue_wait_sum_s\":" << sum_queue_wait_s() << ",\"shards\":[";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    os << (s == 0 ? "" : ",") << "{\"shard\":" << s
       << ",\"queue_wait_s\":" << shards[s].queue_wait_s
       << ",\"run_s\":" << shards[s].run_s << "}";
  }
  os << "]}";
}

int hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int env_jobs() {
  const char* raw = std::getenv("OAQ_JOBS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || parsed < 1) return 0;
  return static_cast<int>(std::min(parsed, 1024L));
}

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  const int from_env = env_jobs();
  return from_env > 0 ? from_env : hardware_jobs();
}

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(threads, 0);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::for_each_shard(int n_shards, int jobs,
                                const std::function<void(int)>& shard_fn) {
  OAQ_REQUIRE(n_shards > 0, "for_each_shard needs at least one shard");
  OAQ_REQUIRE(jobs >= 1, "for_each_shard needs at least one executor");

  // Shared pull state. A helper that starts late finds the counter
  // exhausted and returns — work never waits on one, because the caller
  // also pulls until the counter is drained. With no helper (one executor,
  // one shard or no workers) the caller runs every shard itself.
  struct State {
    explicit State(int total_shards, std::function<void(int)> fn)
        : total(total_shards), run(std::move(fn)) {}
    const int total;
    const std::function<void(int)> run;
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    std::mutex m;
    std::condition_variable all_done;
    std::exception_ptr error;
  };
  auto st = std::make_shared<State>(n_shards, shard_fn);

  const auto pull = [st] {
    while (true) {
      const int s = st->next.fetch_add(1, std::memory_order_relaxed);
      if (s >= st->total) return;
      try {
        st->run(s);
      } catch (...) {
        std::lock_guard<std::mutex> lock(st->m);
        if (!st->error) st->error = std::current_exception();
      }
      if (st->done.fetch_add(1) + 1 == st->total) {
        std::lock_guard<std::mutex> lock(st->m);
        st->all_done.notify_all();
      }
    }
  };

  const int helpers = std::min({jobs - 1, n_shards - 1, size()});
  for (int h = 0; h < helpers; ++h) submit(pull);
  pull();  // the calling thread is an executor too

  std::unique_lock<std::mutex> lock(st->m);
  st->all_done.wait(lock, [&] { return st->done.load() >= st->total; });
  if (st->error) std::rethrow_exception(st->error);
}

void run_shards(int n_shards, int jobs,
                const std::function<void(int)>& shard_fn) {
  OAQ_REQUIRE(jobs >= 1, "run_shards needs at least one executor");
  if (jobs == 1 || n_shards <= 1) {
    for (int s = 0; s < n_shards; ++s) shard_fn(s);
    return;
  }
  ThreadPool::global().for_each_shard(n_shards, jobs, shard_fn);
}

ThreadPool& ThreadPool::global() {
  // Workers plus the participating caller give at least
  // max(hardware, OAQ_JOBS, 4) concurrent executors.
  static ThreadPool pool(std::max({hardware_jobs(), env_jobs(), 4}) - 1);
  return pool;
}

}  // namespace oaq
