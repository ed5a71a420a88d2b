#include "sim/simulator.hpp"

#include <bit>
#include <utility>

namespace oaq {

namespace {

/// Children per heap node. A 4-ary heap is half as deep as a binary one
/// and keeps a node's children within one or two cache lines; pop_top()'s
/// full-node tournament is written for exactly four.
constexpr std::size_t kArity = 4;

/// Time bits for the ordering key. Sim times are nonnegative (schedule_at
/// requires t >= now and the clock starts at the origin), so the IEEE bit
/// pattern compares like an unsigned integer; +0.0 normalizes a possible
/// negative zero, and +infinity orders above every finite time.
std::uint64_t time_bits(TimePoint t) {
  return std::bit_cast<std::uint64_t>(t.since_origin().to_seconds() + 0.0);
}

}  // namespace

void Simulator::sift_up(std::size_t hole, QueueEntry entry) {
  const unsigned __int128 key = entry.key();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (heap_[parent].key() < key) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void Simulator::pop_top() {
  const QueueEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Walk the hole at the root down to a leaf along the smallest children,
  // then sift the former last entry up from there: it almost always
  // belongs near the bottom, so this skips comparing it at every level.
  std::size_t hole = 0;
  while (true) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    if (first + kArity <= n) {
      // A full node: a branch-free two-round tournament of the children.
      const std::size_t a =
          first + (heap_[first + 1].key() < heap_[first].key());
      const std::size_t b =
          first + 2 + (heap_[first + 3].key() < heap_[first + 2].key());
      best = heap_[b].key() < heap_[a].key() ? b : a;
    } else {
      for (std::size_t c = first + 1; c < n; ++c) {
        if (heap_[c].key() < heap_[best].key()) best = c;
      }
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  sift_up(hole, last);
}

bool Simulator::settle() {
  if (live_ == 0) {
    heap_.clear();  // whatever is left is tombstones
    return false;
  }
  // Every pending event has exactly one entry, so a live one is found.
  while (!entry_live(heap_.front())) pop_top();
  return true;
}

void Simulator::fire_top() {
  const std::uint32_t slot = heap_.front().slot;
  pop_top();
  Event& ev = slab_[slot];
  OAQ_ENSURE(ev.at >= now_, "event queue violated time order");
  ++ev.gen;  // disarm before invoking: the own id reads "already fired"
  Callback cb = std::move(ev.callback);
  free_.push_back(slot);
  --live_;
  now_ = ev.at;
  ++processed_;
  cb();  // may grow the slab; `ev` must not be touched past this point
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
  heap_.emplace_back();
  sift_up(heap_.size() - 1, QueueEntry{time_bits(t), ev.seq, slot, ev.gen});
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
  if (!settle()) return false;
  fire_top();
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
  while (settle() && heap_.front().at_bits <= limit) fire_top();
  now_ = t;
}

void Simulator::reserve(std::size_t events) {
  slab_.reserve(events);
  free_.reserve(events);
  heap_.reserve(events);
}

void Simulator::reset() {
  OAQ_REQUIRE(live_ == 0, "reset with events still pending");
  now_ = TimePoint::origin();
  next_seq_ = 1;
  processed_ = 0;
  scheduled_ = 0;
  cancelled_ = 0;
  peak_pending_ = 0;
  heap_.clear();  // tombstones only; the capacity stays
  // slab_ and free_ survive: every slot is disarmed (even generation) and
  // already on the free list, so the next episode reuses them in place.
}

}  // namespace oaq
