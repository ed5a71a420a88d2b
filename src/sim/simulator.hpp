// Deterministic discrete-event simulation kernel.
//
// Drives the protocol simulator (src/oaq), the crosslink network (src/net)
// and the dependability model (src/fault). Events at equal timestamps fire
// in scheduling order, so runs are bit-reproducible for a fixed seed.
//
// The kernel is allocation-free in steady state (ISSUE 3): events live in a
// slab with a free list and are addressed by dense slots; EventIds carry the
// slot's generation tag, making cancel / is_pending O(1) without any
// per-event map; callbacks are stored in a small-buffer-optimized
// SmallFunction. The ready queue is one 4-ary array min-heap ordered by a
// packed 128-bit (time-bits, seq) key — sim times are nonnegative, so the
// IEEE double bit pattern orders like an integer — which keeps event order
// exactly (time, then scheduling order) and therefore bit-reproducible.
// Cancelled events leave tombstones in the heap that are skipped when they
// reach the top. The slab, free list and heap are recycled, so scheduling
// performs zero heap allocations once they have grown to the episode's
// working set.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/function.hpp"
#include "common/units.hpp"

namespace oaq {

/// Lifetime event accounting. Every event ever scheduled is exactly one of
/// processed, cancelled, or still pending, so
/// `scheduled == processed + cancelled + pending` holds at every step
/// boundary — the balance the fault-storm InvariantChecker asserts.
struct SimAccounting {
  std::uint64_t scheduled = 0;
  std::uint64_t processed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t pending = 0;
};

/// Opaque id of a scheduled event; usable to cancel it. Packs the event's
/// slab slot (low 32 bits) and its generation tag (high 32 bits): a slot
/// may be reused after the event fires or is cancelled, but the bumped
/// generation makes every stale id compare as "no longer pending".
struct EventId {
  std::uint64_t value = 0;
  friend constexpr bool operator==(EventId, EventId) = default;
};

/// Event-driven simulator with a monotonic virtual clock.
class Simulator {
 public:
  /// Inline capture budget: the protocol's largest hot callback (this +
  /// a Pass + a TimePoint and change) fits with headroom, and so does a
  /// moved-in std::function.
  using Callback = SmallFunction<void(), 64>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (>= now). Returns a cancellable id.
  EventId schedule_at(TimePoint t, Callback cb);

  /// Schedule `cb` after a nonnegative delay from now.
  EventId schedule_after(Duration delay, Callback cb);

  /// Cancel a pending event. Cancelling an already-fired or unknown event
  /// is a harmless no-op (returns false).
  bool cancel(EventId id);

  /// True when an event with this id is still pending.
  [[nodiscard]] bool is_pending(EventId id) const;

  /// Run one event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or `max_events` fire (safety valve).
  void run(std::uint64_t max_events = UINT64_MAX);

  /// Run all events with time <= `t`, then advance the clock to `t`.
  void run_until(TimePoint t);

  /// Pre-size the slab and heap for an expected concurrent-event count
  /// (optional; the kernel grows on demand and then stops allocating).
  void reserve(std::size_t events);

  /// Return the kernel to its just-constructed state — clock at the
  /// origin, sequence counter restarted, all counters zeroed — while
  /// keeping the grown slab, free list, and heap, so the next
  /// episode in a batch schedules without allocating. The event order of a
  /// subsequent run is identical to a fresh simulator's: the ordering key
  /// is (time, restarted sequence) and never the recycled slot numbers.
  /// Precondition: the queue has drained (no pending events).
  void reset();

  [[nodiscard]] std::size_t pending_count() const { return live_; }
  [[nodiscard]] std::uint64_t processed_count() const { return processed_; }
  /// High-water mark of the pending-event set over the simulator's life —
  /// the DES queue-depth gauge the observability layer reports.
  [[nodiscard]] std::size_t peak_pending_count() const { return peak_pending_; }
  /// Scheduled/processed/cancelled/pending balance (see SimAccounting).
  [[nodiscard]] SimAccounting accounting() const {
    return {scheduled_, processed_, cancelled_,
            static_cast<std::uint64_t>(live_)};
  }

 private:
  /// Slab entry. `gen` is odd while the slot is armed (event pending) and
  /// even while free; it increments on every arm and disarm, so an EventId
  /// matches iff its generation equals the slot's current (odd) one.
  struct Event {
    TimePoint at{};
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    Callback callback;
  };

  /// Ready-queue entry. `at_bits` is the event time's IEEE bit pattern
  /// (nonnegative, so unsigned comparison matches double comparison); the
  /// full ordering key is the 128-bit (at_bits, seq) pair, unique per
  /// event and identical to "time, then scheduling order".
  struct QueueEntry {
    std::uint64_t at_bits = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;

    [[nodiscard]] unsigned __int128 key() const {
      return (static_cast<unsigned __int128>(at_bits) << 64) | seq;
    }
  };

  [[nodiscard]] static constexpr EventId pack(std::uint32_t slot,
                                              std::uint32_t gen) {
    return EventId{(static_cast<std::uint64_t>(gen) << 32) | slot};
  }
  [[nodiscard]] static constexpr std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id.value & 0xFFFFFFFFull);
  }
  [[nodiscard]] static constexpr std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id.value >> 32);
  }

  [[nodiscard]] bool entry_live(const QueueEntry& e) const {
    return slab_[e.slot].gen == e.gen;
  }

  /// Move `entry` from the heap slot `hole` toward the root to its place.
  void sift_up(std::size_t hole, QueueEntry entry);
  /// Remove the heap's top entry.
  void pop_top();
  /// Pop tombstones off the heap top. Returns false when no live event
  /// remains (and then drops the remaining tombstones at once).
  bool settle();
  /// Fire the heap's top entry, which settle() has left live.
  void fire_top();

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_pending_ = 0;
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_;
  std::vector<QueueEntry> heap_;  ///< 4-ary min-heap on QueueEntry::key()
};

}  // namespace oaq
