#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>

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

/// Value text of `"key":` in a flat one-object JSON line, or nullopt.
std::optional<std::string_view> json_field(std::string_view line,
                                           std::string_view key) {
  const std::string pattern = "\"" + std::string(key) + "\":";
  const auto pos = line.find(pattern);
  if (pos == std::string_view::npos) return std::nullopt;
  auto value = line.substr(pos + pattern.size());
  const auto end = value.find_first_of(",}");
  if (end == std::string_view::npos) return std::nullopt;
  return value.substr(0, end);
}

template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T out{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return out;
}

}  // namespace

std::optional<ParsedTraceEvent> parse_trace_line(std::string_view line) {
  const auto shard = json_field(line, "shard");
  const auto ep = json_field(line, "ep");
  const auto t = json_field(line, "t");
  const auto type = json_field(line, "type");
  const auto sat = json_field(line, "sat");
  const auto peer = json_field(line, "peer");
  const auto a = json_field(line, "a");
  const auto v = json_field(line, "v");
  if (!shard || !ep || !t || !type || !sat || !peer || !a || !v) {
    return std::nullopt;
  }
  auto type_text = *type;
  if (type_text.size() < 2 || type_text.front() != '"' ||
      type_text.back() != '"') {
    return std::nullopt;
  }
  const auto event_type =
      trace_event_type_from(type_text.substr(1, type_text.size() - 2));
  const auto shard_n = parse_number<int>(*shard);
  const auto ep_n = parse_number<std::int64_t>(*ep);
  const auto t_n = parse_number<double>(*t);
  const auto sat_n = parse_number<int>(*sat);
  const auto peer_n = parse_number<int>(*peer);
  const auto a_n = parse_number<std::int32_t>(*a);
  const auto v_n = parse_number<double>(*v);
  if (!event_type || !shard_n || !ep_n || !t_n || !sat_n || !peer_n || !a_n ||
      !v_n) {
    return std::nullopt;
  }
  ParsedTraceEvent out;
  out.shard = *shard_n;
  out.event.episode = *ep_n;
  out.event.t_min = *t_n;
  out.event.type = *event_type;
  out.event.sat = static_cast<std::int16_t>(*sat_n);
  out.event.peer = static_cast<std::int16_t>(*peer_n);
  out.event.a = *a_n;
  out.event.v = *v_n;
  return out;
}

void TraceSummary::add(const ParsedTraceEvent& parsed) {
  ++events;
  const TraceEvent& ev = parsed.event;
  if (ev.type == TraceEventType::kDetection) ++detections;
  if (ev.type == TraceEventType::kAlertDelivered) ++alerts_delivered;
  if (ev.type == TraceEventType::kXlinkDrop) {
    ++drops;
    const auto reason = static_cast<DropReason>(ev.a);
    ++drops_by_reason[std::string(to_string(reason))];
    ++episode_drops_[{parsed.shard, ev.episode}];
  }
  if (ev.type == TraceEventType::kXlinkRetry) ++retries;
  if (is_fault(ev.type) && ev.a > 0) ++faults_injected;
  if (is_termination(ev.type)) {
    ++terminations;
    const int chain = std::max(0, static_cast<int>(ev.a));
    ++termination[std::string(to_string(ev.type))][chain];
    max_chain = std::max(max_chain, chain);
    episode_cause_.try_emplace({parsed.shard, ev.episode},
                               std::string(to_string(ev.type)));
  }
}

void TraceSummary::finalize() {
  for (const auto& [key, count] : episode_drops_) {
    const auto cause = episode_cause_.find(key);
    if (cause != episode_cause_.end()) {
      drops_by_cause[cause->second] += count;
    } else {
      drops_unattributed += count;
    }
  }
  episode_drops_.clear();
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
