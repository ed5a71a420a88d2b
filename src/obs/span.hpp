// Hierarchical span profiler (ISSUE 7 tentpole).
//
// The flat ReduceProfile answers "how long did shard s run"; it cannot say
// *where inside a shard* the time went — seed vs. freeze, episodes vs.
// merge, a campaign's arrivals vs. drain. Spans answer that: nested
// named intervals recorded into per-arena call trees and exported as
// Chrome trace-event / Perfetto-compatible JSON (`oaqctl --spans`).
//
// Aggregated call-path tree, not an event log: a SpanArena node is keyed
// by (parent, name) — entering a path that already exists bumps its count
// and accumulates wall time instead of appending an event. Consequences:
//
//   * Zero steady-state allocations: the node slab and the open-span stack
//     grow only while a NEW call path is discovered (a handful per run);
//     the millionth "episode" span reuses the first one's node. Names are
//     stored inline (kSpanNameCapacity bytes, no heap), so enter/exit is a
//     child-list walk plus a clock read (bench/span_overhead gate).
//
//   * Deterministic structure: node identity is the call path, and call
//     paths are derived from the simulation's control flow — which the
//     parallel_reduce contract makes independent of the worker count. The
//     tree shape, names, `count`, and `items` fields are therefore
//     bit-identical at any `jobs`; only the wall-time fields vary. The
//     span determinism test diffs the export with wall times zeroed.
//
//   * One arena per shard plus one for the calling thread: a shard arena
//     is touched only by the worker that runs the shard (the
//     TraceCollector ownership discipline), so recording needs no
//     synchronization, and the export's arena order (main, shard 0, 1, …)
//     is fixed.
//
// Export layout: each arena becomes one Chrome "thread" (tid = arena
// index) with a thread_name metadata record; each node becomes one
// complete event ("ph":"X") whose ts places it after its earlier siblings
// inside its parent — a synthetic flame graph of accumulated inclusive
// time. `args` carries {count, items}.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace oaq {

/// Inline span-label capacity (longer names are truncated, never heap-split).
inline constexpr std::size_t kSpanNameCapacity = 47;

/// One arena's aggregated span tree. Single-writer: the worker that owns
/// the arena records into it; readers wait for the run to finish.
class SpanArena {
 public:
  struct Node {
    char name[kSpanNameCapacity + 1] = {};
    std::int32_t parent = -1;       ///< -1 for roots
    std::int32_t first_child = -1;  ///< discovery order
    std::int32_t next_sibling = -1;
    std::int64_t count = 0;         ///< completed enters of this path
    std::int64_t items = 0;         ///< caller-supplied deterministic tally
    std::int64_t wall_ns = 0;       ///< accumulated inclusive wall time
  };

  SpanArena() { open_.reserve(16); }

  SpanArena(const SpanArena&) = delete;
  SpanArena& operator=(const SpanArena&) = delete;

  /// Open a nested span. The matching exit() must run on the same arena in
  /// LIFO order (use ScopedSpan).
  void enter(std::string_view name) {
    const std::int32_t node = intern(name);
    open_.push_back({node, std::chrono::steady_clock::now()});
  }

  /// Close the innermost open span, accumulating its wall time.
  void exit() {
    OAQ_REQUIRE(!open_.empty(), "span exit without a matching enter");
    const OpenSpan top = open_.back();
    open_.pop_back();
    Node& n = nodes_[static_cast<std::size_t>(top.node)];
    ++n.count;
    n.wall_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - top.started)
                     .count();
  }

  /// Add `delta` to the innermost open span's deterministic item tally
  /// (episode counts, signal counts — anything jobs-independent).
  void add_items(std::int64_t delta) {
    OAQ_REQUIRE(!open_.empty(), "add_items needs an open span");
    nodes_[static_cast<std::size_t>(open_.back().node)].items += delta;
  }

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] bool balanced() const { return open_.empty(); }

  void clear() {
    first_root_ = -1;
    nodes_.clear();
    open_.clear();
  }

 private:
  struct OpenSpan {
    std::int32_t node;
    std::chrono::steady_clock::time_point started;
  };

  /// Node of `name` under the current open span (a root when none),
  /// created on first discovery. Links are resolved by index, never by a
  /// pointer held across push_back — growth relocates the slab.
  [[nodiscard]] std::int32_t intern(std::string_view name) {
    const std::int32_t parent =
        open_.empty() ? std::int32_t{-1} : open_.back().node;
    const std::size_t len = std::min(name.size(), kSpanNameCapacity);
    std::int32_t prev = -1;
    std::int32_t cur =
        parent < 0 ? first_root_
                   : nodes_[static_cast<std::size_t>(parent)].first_child;
    while (cur >= 0) {
      const Node& candidate = nodes_[static_cast<std::size_t>(cur)];
      if (std::strlen(candidate.name) == len &&
          std::memcmp(candidate.name, name.data(), len) == 0) {
        return cur;
      }
      prev = cur;
      cur = candidate.next_sibling;
    }
    // New call path: append the node and hook it at the list tail, so
    // sibling order is discovery order (deterministic control flow).
    const auto index = static_cast<std::int32_t>(nodes_.size());
    Node n;
    std::memcpy(n.name, name.data(), len);
    n.parent = parent;
    nodes_.push_back(n);
    if (prev >= 0) {
      nodes_[static_cast<std::size_t>(prev)].next_sibling = index;
    } else if (parent >= 0) {
      nodes_[static_cast<std::size_t>(parent)].first_child = index;
    } else {
      first_root_ = index;
    }
    return index;
  }

  std::int32_t first_root_ = -1;
  std::vector<Node> nodes_;
  std::vector<OpenSpan> open_;
};

/// RAII span over a nullable arena (the disabled path is one branch).
class ScopedSpan {
 public:
  ScopedSpan(SpanArena* arena, std::string_view name) : arena_(arena) {
    if (arena_ != nullptr) arena_->enter(name);
  }
  ~ScopedSpan() {
    if (arena_ != nullptr) arena_->exit();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanArena* arena_;
};

/// Owns the main-thread arena plus one arena per shard, mirroring
/// TraceCollector's prepare/shard discipline.
class SpanProfiler {
 public:
  /// Drops previous arenas and allocates `n_shards` fresh shard arenas.
  void prepare(int n_shards);

  /// The calling thread's arena (harness phases: seed, freeze, merge).
  [[nodiscard]] SpanArena* main_arena() { return &main_; }
  /// Shard `s`'s arena; owned by whichever worker runs the shard.
  [[nodiscard]] SpanArena* shard_arena(int s);

  [[nodiscard]] int shards() const { return static_cast<int>(shards_.size()); }

  /// Chrome trace-event JSON: {"traceEvents":[...]} with one synthetic
  /// flame per arena. `zero_wall` zeroes every ts/dur — the determinism
  /// tests byte-compare this form across worker counts.
  void write_chrome_json(std::ostream& os, bool zero_wall = false) const;

 private:
  SpanArena main_;
  std::deque<SpanArena> shards_;  // deque: arenas never relocate
};

}  // namespace oaq
