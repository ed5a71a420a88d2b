#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace oaq {

namespace {

/// Run-count ceiling before everything is merged into one. Small enough
/// that the per-pop tournament stays a handful of compares, large enough
/// that bursts of immediate events don't force merges.
constexpr std::size_t kMaxRuns = 8;

/// Largest tail segment flush_spill() will shift to fold a due spill into
/// the sole run in place. The fold turns the schedule-one-pop-one steady
/// state into one long-lived sorted run (no per-event run
/// materialization, no tournaments, no k-way merges). The bound keeps the
/// shift O(1): a deep pending set with near-head arrivals falls back to
/// run creation instead of degrading into an O(pending) memmove per event.
constexpr std::size_t kMaxFoldTail = 64;

/// Dead-prefix length below which flush_spill() skips compacting the sole
/// run. Under the direct-append fast path the sole run can live for the
/// whole simulation (new tail entries keep arriving before settle() ever
/// sees it exhausted), so popped entries would otherwise accumulate ahead
/// of `head` forever — the buffer grew by every tail merge for the
/// lifetime of the simulator. Compaction is deferred until the dead
/// prefix outweighs the live tail, so each moved entry is paid for by a
/// prior pop: amortized O(1), and the buffer stays within 2x the peak
/// live set.
constexpr std::size_t kMinCompactDead = 64;

constexpr unsigned __int128 kNoKey = ~static_cast<unsigned __int128>(0);

/// Time bits for the ordering key. Sim times are nonnegative (schedule_at
/// requires t >= now and the clock starts at the origin), so the IEEE bit
/// pattern compares like an unsigned integer; +0.0 normalizes a possible
/// negative zero, and +infinity orders above every finite time.
std::uint64_t time_bits(TimePoint t) {
  return std::bit_cast<std::uint64_t>(t.since_origin().to_seconds() + 0.0);
}

}  // namespace

std::vector<Simulator::QueueEntry> Simulator::take_buffer() {
  if (buffer_pool_.empty()) return {};
  std::vector<QueueEntry> buf = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  buf.clear();
  return buf;
}

void Simulator::merge_runs() {
  ++queue_stats_.run_merges;
  std::vector<QueueEntry> out = take_buffer();
  std::size_t total = 0;
  for (const Run& r : runs_) total += r.entries.size() - r.head;
  // Round up so a slowly creeping high-water merge size settles on one
  // capacity instead of reallocating at every new maximum.
  out.reserve(std::bit_ceil(total + 1));
  while (true) {
    int best = -1;
    for (int i = 0; i < static_cast<int>(runs_.size()); ++i) {
      Run& r = runs_[i];
      while (r.head < r.entries.size() && !entry_live(r.entries[r.head])) {
        ++r.head;  // purge tombstones while streaming
        ++queue_stats_.tombstones_purged;
      }
      if (r.head >= r.entries.size()) continue;
      if (best < 0 ||
          r.entries[r.head].key() < runs_[best].entries[runs_[best].head].key()) {
        best = i;
      }
    }
    if (best < 0) break;
    out.push_back(runs_[best].entries[runs_[best].head++]);
  }
  for (Run& r : runs_) buffer_pool_.push_back(std::move(r.entries));
  runs_.clear();
  if (!out.empty()) {
    queue_stats_.max_run_length =
        std::max(queue_stats_.max_run_length,
                 static_cast<std::uint64_t>(out.size()));
    runs_.push_back(Run{std::move(out), 0});
  } else {
    buffer_pool_.push_back(std::move(out));
  }
}

void Simulator::flush_spill() {
  const std::size_t before = spill_.size();
  std::erase_if(spill_, [this](const QueueEntry& e) { return !entry_live(e); });
  queue_stats_.tombstones_purged +=
      static_cast<std::uint64_t>(before - spill_.size());
  spill_min_ = kNoKey;
  if (spill_.empty()) return;
  std::sort(spill_.begin(), spill_.end(),
            [](const QueueEntry& a, const QueueEntry& b) {
              return a.key() < b.key();
            });
  // In-place fold: with a single run, merge the sorted spill into it by a
  // backward shift instead of materializing a new run. Pop order is the
  // packed key order either way; this only changes where sorted entries
  // live. The dead prefix [0, head) is never read again.
  if (runs_.size() == 1) {
    Run& r = runs_.front();
    std::vector<QueueEntry>& dst = r.entries;
    // Reclaim the dead prefix once it outweighs the live tail. Pop order
    // is unaffected — only where the live entries sit in the buffer
    // changes — and shrinking before the merge below means the resize
    // path stays inside the warmed capacity instead of growing it.
    if (r.head >= kMinCompactDead && r.head > dst.size() - r.head) {
      std::move(dst.begin() + static_cast<std::ptrdiff_t>(r.head), dst.end(),
                dst.begin());
      dst.resize(dst.size() - r.head);
      r.head = 0;
    }
    const std::size_t n = dst.size();
    const std::size_t m = spill_.size();
    const unsigned __int128 lo = spill_.front().key();
    const std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(dst.begin() + static_cast<std::ptrdiff_t>(r.head),
                         dst.end(), lo,
                         [](const QueueEntry& e, unsigned __int128 key) {
                           return e.key() < key;
                         }) -
        dst.begin());
    // Left fold: when the whole spill fits in the gap before dst[pos]
    // (always true for the single-event spills the steady state produces),
    // reuse the dead prefix the pops have opened: everything in [head, pos)
    // keys below the spill, so the fold is one shift plus one copy: the
    // cost is O(spill), not O(pending).
    const std::size_t left_cost = pos - r.head;
    if (r.head >= m && left_cost <= n - pos && left_cost <= kMaxFoldTail &&
        (pos == n || spill_.back().key() < dst[pos].key())) {
      std::move(dst.begin() + static_cast<std::ptrdiff_t>(r.head),
                dst.begin() + static_cast<std::ptrdiff_t>(pos),
                dst.begin() + static_cast<std::ptrdiff_t>(r.head - m));
      std::copy(spill_.begin(), spill_.end(),
                dst.begin() + static_cast<std::ptrdiff_t>(pos - m));
      r.head -= m;
      spill_.clear();
      queue_stats_.spill_folds += 1;
      return;
    }
    if (n - pos <= kMaxFoldTail) {
      dst.resize(n + m);  // capacity stabilizes: steady state allocates nothing
      std::size_t i = n;
      std::size_t j = m;
      std::size_t k = n + m;
      while (j > 0) {
        if (i > pos && dst[i - 1].key() > spill_[j - 1].key()) {
          dst[--k] = dst[--i];
        } else {
          dst[--k] = spill_[--j];
        }
      }
      spill_.clear();
      queue_stats_.spill_folds += 1;
      queue_stats_.max_run_length =
          std::max(queue_stats_.max_run_length,
                   static_cast<std::uint64_t>(n + m));
      return;
    }
  }
  if (runs_.size() >= kMaxRuns) merge_runs();
  // Both bookkeeping vectors are bounded by the run limit; reserving the
  // bound once keeps later first-time-maximum growth off the hot path.
  if (runs_.capacity() < kMaxRuns + 1) {
    runs_.reserve(kMaxRuns + 1);
    buffer_pool_.reserve(kMaxRuns + 2);
  }
  Run r;
  r.entries = take_buffer();
  r.entries.swap(spill_);
  ++queue_stats_.runs_created;
  queue_stats_.max_run_length =
      std::max(queue_stats_.max_run_length,
               static_cast<std::uint64_t>(r.entries.size()));
  runs_.push_back(std::move(r));
}

int Simulator::settle() {
  if (live_ == 0) return -1;
  // Fast path: one run and no spill means the ≤8-way tournament and the
  // spill-minimum check are both no-ops — advance the head past tombstones
  // and pop from the sole run. Long drain phases (an episode's tail, the
  // cancel-heavy pattern) sit in this shape almost exclusively.
  if (runs_.size() == 1 && spill_.empty()) {
    Run& r = runs_.front();
    while (r.head < r.entries.size() && !entry_live(r.entries[r.head])) {
      ++r.head;
      ++queue_stats_.tombstones_purged;
    }
    // An exhausted sole run falls through so the general path recycles it.
    if (r.head < r.entries.size()) return 0;
  }
  while (true) {
    int best = -1;
    for (int i = 0; i < static_cast<int>(runs_.size());) {
      Run& r = runs_[i];
      while (r.head < r.entries.size() && !entry_live(r.entries[r.head])) {
        ++r.head;
        ++queue_stats_.tombstones_purged;
      }
      if (r.head >= r.entries.size()) {  // exhausted: recycle, swap-erase
        buffer_pool_.push_back(std::move(r.entries));
        runs_[i] = std::move(runs_.back());
        runs_.pop_back();
        continue;
      }
      if (best < 0 ||
          r.entries[r.head].key() < runs_[best].entries[runs_[best].head].key()) {
        best = i;
      }
      ++i;
    }
    // The spill's tracked minimum is conservative (a cancelled event can
    // leave it lower than any live entry), so flushing when it wins never
    // skips an event — at worst it sorts the spill slightly early.
    if (!spill_.empty() &&
        (best < 0 || spill_min_ < runs_[best].entries[runs_[best].head].key())) {
      flush_spill();
      continue;
    }
    return best;
  }
}

EventId Simulator::schedule_at(TimePoint t, Callback cb) {
  OAQ_REQUIRE(t >= now_, "cannot schedule an event in the past");
  OAQ_REQUIRE(cb != nullptr, "event callback must be callable");
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    // The free list holds at most one entry per slab slot; growing it in
    // lockstep keeps the later disarm path (cancel/fire, incl. queue
    // drain) allocation-free.
    free_.reserve(slab_.capacity());
  }
  Event& ev = slab_[slot];
  ev.at = t;
  ev.seq = next_seq_++;
  ev.callback = std::move(cb);
  ++ev.gen;  // arm: generation becomes odd
  QueueEntry entry{time_bits(t), ev.seq, slot, ev.gen};
  // Direct append: an event keying past the sole run's back (the far-future
  // deadlines every episode arms) extends the run in place — it never rides
  // the spill, so it never costs a sort or a fold shift. Tombstones keep
  // their key, so comparing against a cancelled back entry stays ordered.
  if (spill_.empty() && runs_.size() == 1 && !runs_.front().entries.empty() &&
      entry.key() > runs_.front().entries.back().key()) {
    runs_.front().entries.push_back(entry);
  } else {
    if (entry.key() < spill_min_) spill_min_ = entry.key();
    spill_.push_back(entry);
  }
  ++scheduled_;
  ++live_;
  if (live_ > peak_pending_) peak_pending_ = live_;
  return pack(slot, ev.gen);
}

EventId Simulator::schedule_after(Duration delay, Callback cb) {
  OAQ_REQUIRE(delay >= Duration::zero(), "delay must be nonnegative");
  return schedule_at(now_ + delay, std::move(cb));
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slab_.size()) return false;
  Event& ev = slab_[slot];
  if (ev.gen != gen_of(id) || (ev.gen & 1u) == 0) return false;
  ++ev.gen;  // disarm: the queue entry becomes a tombstone
  ev.callback = nullptr;  // release captured state now, not at pop time
  free_.push_back(slot);
  ++cancelled_;
  --live_;
  return true;
}

bool Simulator::is_pending(EventId id) const {
  const std::uint32_t slot = slot_of(id);
  return slot < slab_.size() && slab_[slot].gen == gen_of(id) &&
         (gen_of(id) & 1u) != 0;
}

bool Simulator::step() {
  const int best = settle();
  if (best < 0) return false;
  Run& r = runs_[best];
  const QueueEntry top = r.entries[r.head++];
  Event& ev = slab_[top.slot];
  OAQ_ENSURE(ev.at >= now_, "event queue violated time order");
  ++ev.gen;  // disarm before invoking: the own id reads "already fired"
  Callback cb = std::move(ev.callback);
  free_.push_back(top.slot);
  --live_;
  now_ = ev.at;
  ++processed_;
  cb();  // may grow the slab; `ev` must not be touched past this point
  return true;
}

void Simulator::run(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!step()) return;
  }
}

void Simulator::run_until(TimePoint t) {
  OAQ_REQUIRE(t >= now_, "cannot run backwards");
  const std::uint64_t limit = time_bits(t);
  while (true) {
    const int best = settle();
    if (best < 0) break;
    const Run& r = runs_[best];
    if (r.entries[r.head].at_bits > limit) break;
    step();
  }
  now_ = t;
}

void Simulator::reserve(std::size_t events) {
  slab_.reserve(events);
  free_.reserve(events);
  spill_.reserve(events);
}

void Simulator::reset() {
  OAQ_REQUIRE(live_ == 0, "reset with events still pending");
  now_ = TimePoint::origin();
  next_seq_ = 1;
  processed_ = 0;
  scheduled_ = 0;
  cancelled_ = 0;
  peak_pending_ = 0;
  queue_stats_ = {};
  for (Run& r : runs_) buffer_pool_.push_back(std::move(r.entries));
  runs_.clear();
  spill_.clear();
  spill_min_ = 0;
  // slab_ and free_ survive: every slot is disarmed (even generation) and
  // already on the free list, so the next episode reuses them in place.
}

}  // namespace oaq
