// Structured per-episode protocol event tracing.
//
// The OAQ protocol's QoS pmf is explained by *why* chains terminate —
// TC-1 accuracy, TC-2 deadline margin, TC-3 signal loss, wait-deadline
// rescue under fail-silence (paper §3.2, Fig. 4). The tracer records those
// protocol events (detection, chain hop S_n→S_{n+1}, crosslink
// send/recv/drop, overlap withhold, termination, done-notification,
// wait-deadline firing) into per-shard ring buffers and exports them as
// JSONL.
//
// Determinism contract (mirrors the parallel accumulators): the shard
// decomposition is fixed by (episodes, n_shards), episodes within a shard
// run sequentially, and every event is derived from simulation state — so
// each shard's buffer content is independent of the worker count, and the
// canonical export (shard buffers concatenated in shard order) is
// BIT-identical for any `jobs` value. Ring overflow drops the *oldest*
// events per shard; since per-shard event streams are jobs-independent, so
// is what gets dropped.
//
// Cost contract: a disabled tracer is a null `ShardTraceBuffer*` at every
// recording site — one predictable branch, no virtual call, no allocation
// (verified by the micro_kernels disabled-tracer case).
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace oaq {

/// Protocol event kinds. `term_*` events mark a chain member terminating
/// its part of the coordination, tagged with the cause; an episode can
/// emit several (e.g. a TC-3 silent peer plus the predecessor's
/// wait-deadline rescue).
enum class TraceEventType : std::uint8_t {
  kDetection = 0,      ///< t0: first satellite sees the signal
  kChainHop,           ///< coordination request S_n → S_{n+1}
  kXlinkSend,          ///< crosslink/downlink message queued
  kXlinkRecv,          ///< message delivered (v = delay seconds)
  kXlinkDrop,          ///< message dropped (a = DropReason)
  kWithhold,           ///< OAQ withholds for an overlap window (v = wait min)
  kDone,               ///< "coordination done" received downstream
  kWaitDeadline,       ///< a member's wait deadline τ−(n−1)δ fired
  kAlert,              ///< alert sent toward the ground (v = err km)
  kAlertDelivered,     ///< first alert reached the ground (a = QoS level)
  kTermTc1,            ///< TC-1: estimated error under threshold
  kTermTc2,            ///< TC-2: deadline margin exhausted
  kTermTc3,            ///< TC-3: signal gone / member cannot compute
  kTermWaitDeadline,   ///< terminated by the wait-deadline rescue
  kTermGeometry,       ///< no further pass arrives — chain exhausted
  kTermWindow,         ///< next pass outside the opportunity window
  kTermSimultaneous,   ///< simultaneous fix computed — nothing to chain
  kTermPreliminary,    ///< preliminary fallback forced at the deadline
  kTermBaq,            ///< BAQ: delivered after the initial computation
  kTermLate,           ///< iteration completed after the deadline passed
  // Degradation events (PR 5). Appended after the term_* family, so
  // is_termination must stay a bounded range.
  kXlinkRetry,         ///< reliable-mode retransmission (a = DropReason,
                       ///< v = ack-timeout seconds until the retry)
  kFaultFailSilent,    ///< injector: node went fail-silent
  kFaultRecover,       ///< injector: node recovered
  kFaultLinkOutage,    ///< sat = plane_a, peer = plane_b, a = +1/-1
  kFaultDelaySpike,    ///< v = factor, a = +1/-1 (window start/end)
  kFaultBurstLoss,     ///< v = loss probability, a = +1/-1
  kFaultPartition,     ///< v = plane bitmask (exact below 2^53), a = +1/-1
  // Stochastic fault processes + self-healing links (ISSUE 10).
  kFaultLinkLoss,      ///< sat = plane_a, peer = plane_b, v = loss, a = +1/-1
  kLinkDemoted,        ///< health: sat/peer = planes, a = level, v = probation s
  kLinkProbe,          ///< health: probe attempt over a demoted link
  kLinkRestored,       ///< health: demoted link back above restore threshold
};

/// Reason codes carried in `TraceEvent::a` for kXlinkDrop / kXlinkRetry.
enum class DropReason : std::uint8_t {
  kDeadSender = 0,
  kLoss = 1,
  kDeadReceiver = 2,
  kUnregistered = 3,
  kLinkDown = 4,  ///< link outage or plane partition window
};

/// Stable wire name of an event type (the JSONL "type" value).
[[nodiscard]] std::string_view to_string(TraceEventType type);

/// Stable name of a drop reason (trace-summary drop tables).
[[nodiscard]] std::string_view to_string(DropReason reason);

/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] std::optional<TraceEventType> trace_event_type_from(
    std::string_view name);

/// True for the `term_*` family (the trace-summary rows).
[[nodiscard]] constexpr bool is_termination(TraceEventType type) {
  return type >= TraceEventType::kTermTc1 &&
         type <= TraceEventType::kTermLate;
}

/// True for the injector's `fault_*` family.
[[nodiscard]] constexpr bool is_fault(TraceEventType type) {
  return type >= TraceEventType::kFaultFailSilent &&
         type <= TraceEventType::kFaultLinkLoss;
}

/// One protocol event. Flat and POD-sized so ring buffers stay cheap.
/// `sat`/`peer` are satellite slots (-1 = ground, -2 = none); `a` is a
/// small integer detail (chain length for term_*, ordinal for chain hops,
/// QoS level for deliveries, DropReason for drops); `v` is a double detail
/// (error km, delay s, wait min) — see each type's comment.
struct TraceEvent {
  std::int64_t episode = 0;  ///< episode index / campaign target id (-1 n/a)
  double t_min = 0.0;        ///< simulation time, minutes since origin
  TraceEventType type = TraceEventType::kDetection;
  std::int16_t sat = -2;
  std::int16_t peer = -2;
  std::int32_t a = 0;
  double v = 0.0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Fixed-capacity ring buffer of one shard's events. Keeps the most
/// recent `capacity` events; `dropped()` counts overwritten ones.
class ShardTraceBuffer {
 public:
  explicit ShardTraceBuffer(std::size_t capacity);

  void push(const TraceEvent& event);

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ - events_.size();
  }

  /// Calls `fn(event)` in recording order (oldest surviving first),
  /// reading the ring in place: [head, end) then [0, head) once wrapped.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = head_; i < events_.size(); ++i) fn(events_[i]);
    for (std::size_t i = 0; i < head_; ++i) fn(events_[i]);
  }

  /// Events in recording order (oldest surviving first), copied.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  void clear();

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< index of the oldest event once wrapped
  std::uint64_t recorded_ = 0;
  std::vector<TraceEvent> events_;
};

/// Owns one ring buffer per shard. The harness calls `prepare(n_shards)`
/// before fanning out; each shard then records into its private buffer
/// with no synchronization (a shard is processed by exactly one worker).
class TraceCollector {
 public:
  explicit TraceCollector(std::size_t capacity_per_shard = 1 << 16);

  /// Drops previous buffers and allocates `n_shards` empty ones.
  void prepare(int n_shards);

  [[nodiscard]] int shards() const { return static_cast<int>(buffers_.size()); }
  [[nodiscard]] ShardTraceBuffer* shard(int s);
  [[nodiscard]] const ShardTraceBuffer& shard_buffer(int s) const;

  [[nodiscard]] std::uint64_t total_recorded() const;
  [[nodiscard]] std::uint64_t total_dropped() const;

  /// Canonical JSONL export: shard buffers concatenated in shard order,
  /// one event per line:
  ///   {"shard":S,"ep":E,"t":T,"type":"...","sat":A,"peer":B,"a":N,"v":V}
  /// Deterministic bytes for any jobs value (see file header). Each line
  /// is formatted into a stack buffer straight from the ring and written
  /// with one `os.write`.
  void write_jsonl(std::ostream& os) const;

 private:
  std::size_t capacity_;
  std::deque<ShardTraceBuffer> buffers_;  // deque: buffers never relocate
};

/// One JSONL line parsed back into an event (plus its shard).
struct ParsedTraceEvent {
  int shard = 0;
  TraceEvent event;
};

/// Parses a line written by TraceCollector::write_jsonl, reading its key
/// constants in write order with no whitespace, with or without the
/// newline. A `null` double (the writer's NaN or ±inf) reads back as NaN.
/// Nullopt for blank or foreign lines, keys out of order, an unknown type
/// name, a number out of its field's range, or trailing bytes.
[[nodiscard]] std::optional<ParsedTraceEvent> parse_trace_line(
    std::string_view line);

/// Aggregation of a trace: termination-cause × chain-length counts (the
/// `oaqctl trace-summary` table), stream totals, and the per-episode
/// samples `oaqctl report` prints.
struct TraceSummary {
  /// cause name → chain length → event count.
  std::map<std::string, std::map<int, std::int64_t>> termination;
  std::int64_t events = 0;        ///< parsed events
  std::int64_t terminations = 0;  ///< events in the term_* family
  std::int64_t detections = 0;
  std::int64_t alerts_delivered = 0;
  int max_chain = 0;
  // Degradation accounting (PR 5): crosslink drops split by reason,
  // reliable-mode retries, injected fault activations, and — after
  // finalize() — episodes and their drops by first termination cause.
  std::int64_t drops = 0;
  std::map<std::string, std::int64_t> drops_by_reason;
  std::int64_t retries = 0;
  std::int64_t faults_injected = 0;  ///< fault_* activations (a > 0)
  std::map<std::string, std::int64_t> episodes_by_cause;
  std::map<std::string, std::int64_t> drops_by_cause;
  std::int64_t drops_unattributed = 0;
  /// After finalize(), ascending: per episode, its first detection to its
  /// first alert (CampaignResult::latency_min, recovered from the trace).
  std::vector<double> latency_min;
  /// After finalize(), ascending: per delivered episode, the last fault
  /// deactivation (a < 0) before its first delivery to that delivery.
  std::vector<double> recovery_min;

  void add(const ParsedTraceEvent& parsed);
  /// Attribute each episode, and its drop events, to its first recorded
  /// termination cause — drops of episodes with none, including
  /// shared-network campaign events stamped episode -1, land in
  /// `drops_unattributed` — and fill the two samples (NaN times left
  /// out). Idempotent; summarize_trace calls it.
  void finalize();

 private:
  /// What one (shard, episode) contributes to the per-episode outputs.
  /// Events within a shard arrive in sim-time order, so snapshotting the
  /// running degradation end at the first delivery is exact.
  struct EpisodeRow {
    std::int64_t drops = 0;
    std::optional<TraceEventType> first_termination;
    std::optional<double> detection_min;    ///< first detection
    std::optional<double> first_alert_min;  ///< first alert sent
    double last_degrade_end = -1.0;         ///< latest fault end so far
    double degrade_end_at_delivery = -1.0;  ///< snapshot at delivery
    double delivered_min = -1.0;            ///< first alert_delivered
  };
  std::map<std::pair<int, std::int64_t>, EpisodeRow> episodes_;
  /// Latest end of a shard's episode -1 (campaign-wide) fault clauses.
  std::map<int, double> shard_degrade_end_;
};

/// The one pass over a trace: summarizes a JSONL stream line by line
/// (unparseable lines are skipped) and finalizes. `trace-summary` and
/// `report` both print from it.
[[nodiscard]] TraceSummary summarize_trace(std::istream& is);

}  // namespace oaq
