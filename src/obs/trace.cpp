#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <type_traits>

#include "common/error.hpp"
#include "obs/jsonfmt.hpp"

namespace oaq {

namespace {

struct TypeName {
  TraceEventType type;
  std::string_view name;
};

// Wire names are part of the trace schema — append-only, never renamed.
// Row i names enum value i, so to_string is one index.
constexpr TypeName kTypeNames[] = {
    {TraceEventType::kDetection, "detection"},
    {TraceEventType::kChainHop, "chain_hop"},
    {TraceEventType::kXlinkSend, "xlink_send"},
    {TraceEventType::kXlinkRecv, "xlink_recv"},
    {TraceEventType::kXlinkDrop, "xlink_drop"},
    {TraceEventType::kWithhold, "withhold"},
    {TraceEventType::kDone, "done"},
    {TraceEventType::kWaitDeadline, "wait_deadline"},
    {TraceEventType::kAlert, "alert"},
    {TraceEventType::kAlertDelivered, "alert_delivered"},
    {TraceEventType::kTermTc1, "term_tc1"},
    {TraceEventType::kTermTc2, "term_tc2"},
    {TraceEventType::kTermTc3, "term_tc3"},
    {TraceEventType::kTermWaitDeadline, "term_wait_deadline"},
    {TraceEventType::kTermGeometry, "term_geometry"},
    {TraceEventType::kTermWindow, "term_window"},
    {TraceEventType::kTermSimultaneous, "term_simultaneous"},
    {TraceEventType::kTermPreliminary, "term_preliminary"},
    {TraceEventType::kTermBaq, "term_baq"},
    {TraceEventType::kTermLate, "term_late"},
    {TraceEventType::kXlinkRetry, "xlink_retry"},
    {TraceEventType::kFaultFailSilent, "fault_fail_silent"},
    {TraceEventType::kFaultRecover, "fault_recover"},
    {TraceEventType::kFaultLinkOutage, "fault_link_outage"},
    {TraceEventType::kFaultDelaySpike, "fault_delay_spike"},
    {TraceEventType::kFaultBurstLoss, "fault_burst_loss"},
    {TraceEventType::kFaultPartition, "fault_partition"},
    {TraceEventType::kFaultLinkLoss, "fault_link_loss"},
    {TraceEventType::kLinkDemoted, "link_demoted"},
    {TraceEventType::kLinkProbe, "link_probe"},
    {TraceEventType::kLinkRestored, "link_restored"},
};

constexpr bool type_names_indexed_by_value() {
  for (std::size_t i = 0; i < std::size(kTypeNames); ++i) {
    if (static_cast<std::size_t>(kTypeNames[i].type) != i) return false;
  }
  return std::size(kTypeNames) ==
         static_cast<std::size_t>(TraceEventType::kLinkRestored) + 1;
}
static_assert(type_names_indexed_by_value(),
              "kTypeNames row i must name TraceEventType value i");

constexpr std::string_view kUnknownType = "unknown";

constexpr std::size_t longest_type_name() {
  std::size_t longest = kUnknownType.size();
  for (const auto& entry : kTypeNames) {
    longest = std::max(longest, entry.name.size());
  }
  return longest;
}

// Key text of one JSONL line, in write order around the values.
constexpr std::string_view kShardKey = "{\"shard\":";
constexpr std::string_view kEpKey = ",\"ep\":";
constexpr std::string_view kTKey = ",\"t\":";
constexpr std::string_view kTypeKey = ",\"type\":\"";
constexpr std::string_view kSatKey = "\",\"sat\":";
constexpr std::string_view kPeerKey = ",\"peer\":";
constexpr std::string_view kAKey = ",\"a\":";
constexpr std::string_view kVKey = ",\"v\":";
constexpr std::string_view kLineEnd = "}\n";

constexpr std::size_t kMaxTraceLine =
    kShardKey.size() + kEpKey.size() + kTKey.size() + kTypeKey.size() +
    kSatKey.size() + kPeerKey.size() + kAKey.size() + kVKey.size() +
    kLineEnd.size() + longest_type_name() + kJsonIntMaxChars<int> +
    kJsonIntMaxChars<std::int64_t> + 2 * kJsonIntMaxChars<std::int16_t> +
    kJsonIntMaxChars<std::int32_t> + 2 * kJsonDoubleMaxChars;
static_assert(kMaxTraceLine <= kJsonLineMax,
              "a trace line must fit the export's line buffer");

constexpr std::string_view kDropReasonNames[] = {
    "dead_sender", "loss", "dead_receiver", "unregistered", "link_down",
};

}  // namespace

std::string_view to_string(TraceEventType type) {
  const auto i = static_cast<std::size_t>(type);
  return i < std::size(kTypeNames) ? kTypeNames[i].name : kUnknownType;
}

std::string_view to_string(DropReason reason) {
  const auto i = static_cast<std::size_t>(reason);
  return i < std::size(kDropReasonNames) ? kDropReasonNames[i] : "unknown";
}

std::optional<TraceEventType> trace_event_type_from(std::string_view name) {
  for (const auto& entry : kTypeNames) {
    if (entry.name == name) return entry.type;
  }
  return std::nullopt;
}

ShardTraceBuffer::ShardTraceBuffer(std::size_t capacity)
    : capacity_(capacity) {
  OAQ_REQUIRE(capacity > 0, "trace buffer capacity must be positive");
}

void ShardTraceBuffer::push(const TraceEvent& event) {
  ++recorded_;
  if (events_.size() < capacity_) {
    events_.push_back(event);
    return;
  }
  events_[head_] = event;  // overwrite the oldest: flight-recorder semantics
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> ShardTraceBuffer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for_each([&out](const TraceEvent& ev) { out.push_back(ev); });
  return out;
}

void ShardTraceBuffer::clear() {
  events_.clear();
  head_ = 0;
  recorded_ = 0;
}

TraceCollector::TraceCollector(std::size_t capacity_per_shard)
    : capacity_(capacity_per_shard) {
  OAQ_REQUIRE(capacity_per_shard > 0,
              "trace buffer capacity must be positive");
}

void TraceCollector::prepare(int n_shards) {
  OAQ_REQUIRE(n_shards > 0, "need at least one shard");
  buffers_.clear();
  for (int s = 0; s < n_shards; ++s) buffers_.emplace_back(capacity_);
}

ShardTraceBuffer* TraceCollector::shard(int s) {
  OAQ_REQUIRE(s >= 0 && s < shards(), "trace shard out of range");
  return &buffers_[static_cast<std::size_t>(s)];
}

const ShardTraceBuffer& TraceCollector::shard_buffer(int s) const {
  OAQ_REQUIRE(s >= 0 && s < shards(), "trace shard out of range");
  return buffers_[static_cast<std::size_t>(s)];
}

std::uint64_t TraceCollector::total_recorded() const {
  std::uint64_t total = 0;
  for (const auto& b : buffers_) total += b.recorded();
  return total;
}

std::uint64_t TraceCollector::total_dropped() const {
  std::uint64_t total = 0;
  for (const auto& b : buffers_) total += b.dropped();
  return total;
}

void TraceCollector::write_jsonl(std::ostream& os) const {
  char line[kJsonLineMax];
  for (int s = 0; s < shards(); ++s) {
    buffers_[static_cast<std::size_t>(s)].for_each(
        [&](const TraceEvent& ev) {
          char* p = append_int(append_text(line, kShardKey), s);
          p = append_int(append_text(p, kEpKey), ev.episode);
          p = append_json_double(append_text(p, kTKey), ev.t_min);
          p = append_text(append_text(p, kTypeKey), to_string(ev.type));
          p = append_int(append_text(p, kSatKey), ev.sat);
          p = append_int(append_text(p, kPeerKey), ev.peer);
          p = append_int(append_text(p, kAKey), ev.a);
          p = append_json_double(append_text(p, kVKey), ev.v);
          p = append_text(p, kLineEnd);
          os.write(line, p - line);
        });
  }
}

namespace {

/// Reads one trace line left to right against write_jsonl's layout: each
/// step consumes one key constant and the value after it, and any byte not
/// where the writer puts it fails the read.
class LineCursor {
 public:
  explicit LineCursor(std::string_view line) : rest_(line) {}

  template <typename T>
  bool field(std::string_view key, T& out) {
    if (!rest_.starts_with(key)) return false;
    rest_.remove_prefix(key.size());
    return value(out);
  }

  /// True when only kLineEnd is left; its newline is optional, since
  /// getline strips it.
  [[nodiscard]] bool at_line_end() const {
    return rest_ == kLineEnd || rest_ == kLineEnd.substr(0, 1);
  }

 private:
  template <typename Number>
  bool value(Number& out) {
    if constexpr (std::is_floating_point_v<Number>) {
      if (rest_.starts_with("null")) {  // the writer's non-finite double
        out = std::numeric_limits<Number>::quiet_NaN();
        rest_.remove_prefix(4);
        return true;
      }
    }
    const auto [end, ec] =
        std::from_chars(rest_.data(), rest_.data() + rest_.size(), out);
    if (ec != std::errc{}) return false;
    rest_.remove_prefix(static_cast<std::size_t>(end - rest_.data()));
    return true;
  }

  bool value(TraceEventType& out) {
    const std::string_view name = rest_.substr(0, rest_.find('"'));
    rest_.remove_prefix(name.size());
    const auto type = trace_event_type_from(name);
    if (type) out = *type;
    return type.has_value();
  }

  std::string_view rest_;
};

}  // namespace

std::optional<ParsedTraceEvent> parse_trace_line(std::string_view line) {
  ParsedTraceEvent out;
  TraceEvent& ev = out.event;
  LineCursor cursor(line);
  if (cursor.field(kShardKey, out.shard) &&
      cursor.field(kEpKey, ev.episode) && cursor.field(kTKey, ev.t_min) &&
      cursor.field(kTypeKey, ev.type) && cursor.field(kSatKey, ev.sat) &&
      cursor.field(kPeerKey, ev.peer) && cursor.field(kAKey, ev.a) &&
      cursor.field(kVKey, ev.v) && cursor.at_line_end()) {
    return out;
  }
  return std::nullopt;
}

void TraceSummary::add(const ParsedTraceEvent& parsed) {
  ++events;
  const TraceEvent& ev = parsed.event;
  const auto row = [&]() -> EpisodeRow& {
    return episodes_[{parsed.shard, ev.episode}];
  };
  if (ev.type == TraceEventType::kDetection) {
    ++detections;
    EpisodeRow& r = row();
    if (!r.detection_min) r.detection_min = ev.t_min;
  }
  if (ev.type == TraceEventType::kAlert) {
    EpisodeRow& r = row();
    if (!r.first_alert_min) r.first_alert_min = ev.t_min;
  }
  if (ev.type == TraceEventType::kAlertDelivered) {
    ++alerts_delivered;
    EpisodeRow& r = row();
    if (r.delivered_min < 0.0) {
      r.delivered_min = ev.t_min;
      const auto shared = shard_degrade_end_.find(parsed.shard);
      r.degrade_end_at_delivery =
          shared == shard_degrade_end_.end()
              ? r.last_degrade_end
              : std::max(r.last_degrade_end, shared->second);
    }
  }
  if (ev.type == TraceEventType::kXlinkDrop) {
    ++drops;
    const auto reason = static_cast<DropReason>(ev.a);
    ++drops_by_reason[std::string(to_string(reason))];
    ++row().drops;
  }
  if (ev.type == TraceEventType::kXlinkRetry) ++retries;
  if (is_fault(ev.type) && ev.a > 0) ++faults_injected;
  if (is_fault(ev.type) && ev.a < 0) {
    // Campaign fault clauses belong to no single target and are traced
    // with episode -1; their ends apply to every episode of the shard.
    double& end = ev.episode < 0
                      ? shard_degrade_end_.try_emplace(parsed.shard, -1.0)
                            .first->second
                      : row().last_degrade_end;
    end = std::max(end, ev.t_min);
  }
  if (is_termination(ev.type)) {
    ++terminations;
    const int chain = std::max(0, static_cast<int>(ev.a));
    ++termination[std::string(to_string(ev.type))][chain];
    max_chain = std::max(max_chain, chain);
    EpisodeRow& r = row();
    if (!r.first_termination) r.first_termination = ev.type;
  }
}

void TraceSummary::finalize() {
  for (const auto& [key, row] : episodes_) {
    if (row.first_termination) {
      const std::string cause(to_string(*row.first_termination));
      ++episodes_by_cause[cause];
      if (row.drops > 0) drops_by_cause[cause] += row.drops;
    } else {
      drops_unattributed += row.drops;
    }
    if (row.detection_min && row.first_alert_min) {
      latency_min.push_back(*row.first_alert_min - *row.detection_min);
    }
    if (row.delivered_min >= 0.0 && row.degrade_end_at_delivery >= 0.0) {
      recovery_min.push_back(row.delivered_min - row.degrade_end_at_delivery);
    }
  }
  // A null time reads back as NaN, which has no place in an ordering.
  for (std::vector<double>* sample : {&latency_min, &recovery_min}) {
    std::erase_if(*sample, [](double x) { return std::isnan(x); });
    std::sort(sample->begin(), sample->end());
  }
  episodes_.clear();
  shard_degrade_end_.clear();
}

TraceSummary summarize_trace(std::istream& is) {
  TraceSummary summary;
  std::string line;
  while (std::getline(is, line)) {
    if (const auto parsed = parse_trace_line(line)) summary.add(*parsed);
  }
  summary.finalize();
  return summary;
}

}  // namespace oaq
