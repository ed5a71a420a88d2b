// ShardTraceBuffer / TraceCollector: flight-recorder semantics, the
// canonical JSONL export, and the parse/summarize round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace oaq {
namespace {

TraceEvent make_event(int i) {
  TraceEvent ev;
  ev.episode = i;
  ev.t_min = 0.5 * i;
  ev.type = TraceEventType::kChainHop;
  ev.sat = static_cast<std::int16_t>(i % 9);
  ev.peer = static_cast<std::int16_t>((i + 1) % 9);
  ev.a = i;
  ev.v = 1.0 / (i + 1);
  return ev;
}

TEST(ShardTraceBuffer, KeepsEventsInOrderBelowCapacity) {
  ShardTraceBuffer buf(8);
  for (int i = 0; i < 5; ++i) buf.push(make_event(i));
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.recorded(), 5u);
  EXPECT_EQ(buf.dropped(), 0u);
  const auto events = buf.events();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(events[i], make_event(i));
}

TEST(ShardTraceBuffer, OverwritesOldestWhenFull) {
  ShardTraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) buf.push(make_event(i));
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.recorded(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  const auto events = buf.events();
  // Flight recorder: the last 4 events survive, oldest first.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[i], make_event(6 + i));
}

TEST(ShardTraceBuffer, ClearResets) {
  ShardTraceBuffer buf(4);
  for (int i = 0; i < 6; ++i) buf.push(make_event(i));
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.recorded(), 0u);
  buf.push(make_event(42));
  EXPECT_EQ(buf.events()[0], make_event(42));
}

TEST(TraceEventType, WireNamesRoundTrip) {
  for (int t = 0; t <= static_cast<int>(TraceEventType::kTermLate); ++t) {
    const auto type = static_cast<TraceEventType>(t);
    const auto name = to_string(type);
    EXPECT_NE(name, "unknown") << t;
    const auto back = trace_event_type_from(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, type);
  }
  EXPECT_FALSE(trace_event_type_from("no_such_event").has_value());
}

TEST(TraceEventType, TerminationFamilyIsContiguous) {
  EXPECT_FALSE(is_termination(TraceEventType::kAlertDelivered));
  EXPECT_TRUE(is_termination(TraceEventType::kTermTc1));
  EXPECT_TRUE(is_termination(TraceEventType::kTermLate));
}

TEST(TraceCollector, ShardBuffersAreIndependentAndStable) {
  TraceCollector collector(16);
  collector.prepare(3);
  ASSERT_EQ(collector.shards(), 3);
  ShardTraceBuffer* s0 = collector.shard(0);
  collector.shard(1)->push(make_event(1));
  s0->push(make_event(0));  // pointer still valid after other-shard pushes
  EXPECT_EQ(collector.shard_buffer(0).size(), 1u);
  EXPECT_EQ(collector.shard_buffer(1).size(), 1u);
  EXPECT_EQ(collector.shard_buffer(2).size(), 0u);
  EXPECT_EQ(collector.total_recorded(), 2u);
  EXPECT_EQ(collector.total_dropped(), 0u);
}

TEST(TraceCollector, JsonlRoundTripsThroughParser) {
  TraceCollector collector(16);
  collector.prepare(2);
  collector.shard(0)->push(make_event(3));
  collector.shard(1)->push(make_event(7));
  std::ostringstream os;
  collector.write_jsonl(os);

  std::istringstream is(os.str());
  std::string line;
  std::vector<ParsedTraceEvent> parsed;
  while (std::getline(is, line)) {
    const auto ev = parse_trace_line(line);
    ASSERT_TRUE(ev.has_value()) << line;
    parsed.push_back(*ev);
  }
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].shard, 0);
  EXPECT_EQ(parsed[0].event, make_event(3));
  EXPECT_EQ(parsed[1].shard, 1);
  EXPECT_EQ(parsed[1].event, make_event(7));
}

TEST(TraceCollector, ExportConcatenatesInShardOrder) {
  TraceCollector collector(16);
  collector.prepare(2);
  // Push into shard 1 first: export order must still be shard 0 first.
  collector.shard(1)->push(make_event(1));
  collector.shard(0)->push(make_event(0));
  std::ostringstream os;
  collector.write_jsonl(os);
  const std::string text = os.str();
  EXPECT_LT(text.find("\"shard\":0"), text.find("\"shard\":1"));
}

// Reference export: the per-field `ostream <<` formulation of the JSONL
// line, with its own copy of the double rule, over the events each shard
// should still hold (the last `capacity` pushed, oldest first).
// write_jsonl must produce the same bytes. Dropping the isfinite branch
// of append_json_double (so NaN prints `nan`, not `null`) fails the
// comparison.
void reference_double(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  os << std::string_view(buf, static_cast<std::size_t>(end - buf));
}

std::string reference_jsonl(const std::vector<std::vector<TraceEvent>>& pushed,
                            std::size_t capacity) {
  std::ostringstream os;
  for (std::size_t s = 0; s < pushed.size(); ++s) {
    const auto& events = pushed[s];
    const std::size_t first =
        events.size() > capacity ? events.size() - capacity : 0;
    for (std::size_t i = first; i < events.size(); ++i) {
      const TraceEvent& ev = events[i];
      os << "{\"shard\":" << s << ",\"ep\":" << ev.episode << ",\"t\":";
      reference_double(os, ev.t_min);
      os << ",\"type\":\"" << to_string(ev.type)
         << "\",\"sat\":" << ev.sat << ",\"peer\":" << ev.peer
         << ",\"a\":" << ev.a << ",\"v\":";
      reference_double(os, ev.v);
      os << "}\n";
    }
  }
  return os.str();
}

/// Pushes `pushed[s]` into shard s of a fresh collector and exports it.
std::string export_jsonl(const std::vector<std::vector<TraceEvent>>& pushed,
                        std::size_t capacity) {
  TraceCollector collector(capacity);
  collector.prepare(static_cast<int>(pushed.size()));
  for (std::size_t s = 0; s < pushed.size(); ++s) {
    for (const TraceEvent& ev : pushed[s]) {
      collector.shard(static_cast<int>(s))->push(ev);
    }
  }
  std::ostringstream os;
  collector.write_jsonl(os);
  return os.str();
}

/// Byte equality, reported as the first differing line of each side.
void expect_same_bytes(const std::string& got, const std::string& want) {
  if (got == want) return;
  const auto at = static_cast<std::size_t>(
      std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first -
      got.begin());
  const auto line_at = [at](const std::string& text) {
    const auto begin = text.rfind('\n', at == 0 ? 0 : at - 1);
    const auto from = begin == std::string::npos || at == 0 ? 0 : begin + 1;
    return text.substr(from, text.find('\n', from) - from);
  };
  ADD_FAILURE() << "export differs from the reference at byte " << at
                << " (" << got.size() << " vs " << want.size()
                << " bytes)\n  got:  " << line_at(got)
                << "\n  want: " << line_at(want);
}

double bits_to_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Every wire type (plus one past the table, written "unknown") over the
/// extreme integers, then every pair of edge doubles as (t, v).
std::vector<TraceEvent> edge_value_events() {
  using Limits = std::numeric_limits<double>;
  const double doubles[] = {
      Limits::quiet_NaN(),  Limits::infinity(), -Limits::infinity(),
      -0.0,                 0.0,                Limits::denorm_min(),
      Limits::max(),        1e-300,             -2.2250738585072014e-308,
      9999.0,               -9999.0,            10000.0,
      100000.0,             0.5,                -3.0,
  };
  const std::int64_t episodes[] = {std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::max(),
                                   -1, 0};
  const std::int16_t slots[] = {std::numeric_limits<std::int16_t>::min(),
                                std::numeric_limits<std::int16_t>::max(), -2,
                                -1};
  const std::int32_t details[] = {std::numeric_limits<std::int32_t>::min(),
                                  std::numeric_limits<std::int32_t>::max(),
                                  0};
  std::vector<TraceEvent> events;
  // Every wire type, plus one value past the table ("unknown").
  const int n_types = static_cast<int>(TraceEventType::kLinkRestored) + 2;
  for (int t = 0; t < n_types; ++t) {
    TraceEvent ev;
    ev.type = static_cast<TraceEventType>(t);
    ev.episode = episodes[static_cast<std::size_t>(t) % std::size(episodes)];
    ev.sat = slots[static_cast<std::size_t>(t) % std::size(slots)];
    ev.peer = slots[static_cast<std::size_t>(t + 1) % std::size(slots)];
    ev.a = details[static_cast<std::size_t>(t) % std::size(details)];
    ev.t_min = doubles[static_cast<std::size_t>(t) % std::size(doubles)];
    ev.v = doubles[static_cast<std::size_t>(t + 7) % std::size(doubles)];
    events.push_back(ev);
  }
  for (const double t : doubles) {
    for (const double v : doubles) {
      TraceEvent ev;
      ev.t_min = t;
      ev.v = v;
      events.push_back(ev);
    }
  }
  return events;
}

TEST(TraceCollector, ExportMatchesReferenceOnEdgeValues) {
  const std::vector<std::vector<TraceEvent>> pushed{edge_value_events()};
  expect_same_bytes(export_jsonl(pushed, pushed[0].size()),
                    reference_jsonl(pushed, pushed[0].size()));
}

TEST(TraceCollector, ExportMatchesReferenceOnWrappedAndEmptyShards) {
  // Shard 0 wraps (11 pushes into 4 slots), shard 1 stays empty, shard 2
  // is exactly full without wrapping, shard 3 is part full.
  std::vector<std::vector<TraceEvent>> pushed(4);
  for (int i = 0; i < 11; ++i) pushed[0].push_back(make_event(i));
  for (int i = 0; i < 4; ++i) pushed[2].push_back(make_event(100 + i));
  for (int i = 0; i < 2; ++i) pushed[3].push_back(make_event(200 + i));
  const std::string text = export_jsonl(pushed, 4);
  expect_same_bytes(text, reference_jsonl(pushed, 4));
  EXPECT_TRUE(text.starts_with("{\"shard\":0,\"ep\":7,")) << text;
}

/// 18,000 events over three shards; raw bit patterns cover every double
/// class (denormals, huge exponents, NaN payloads).
std::vector<std::vector<TraceEvent>> seeded_random_events() {
  std::mt19937_64 rng(20030622);
  std::uniform_int_distribution<int> type(
      0, static_cast<int>(TraceEventType::kLinkRestored));
  std::vector<std::vector<TraceEvent>> pushed(3);
  for (auto& shard : pushed) {
    for (int i = 0; i < 6000; ++i) {
      TraceEvent ev;
      ev.type = static_cast<TraceEventType>(type(rng));
      ev.episode = static_cast<std::int64_t>(rng());
      ev.sat = static_cast<std::int16_t>(rng());
      ev.peer = static_cast<std::int16_t>(rng());
      ev.a = static_cast<std::int32_t>(rng());
      switch (rng() % 3) {
        case 0: ev.t_min = bits_to_double(rng()); break;
        case 1: ev.t_min = std::ldexp(static_cast<double>(rng() >> 11), -40);
                break;
        default: ev.t_min = static_cast<double>(
                     static_cast<std::int64_t>(rng() % 20001) - 10000);
      }
      ev.v = rng() % 2 == 0 ? bits_to_double(rng())
                            : static_cast<double>(rng() % 64);
      shard.push_back(ev);
    }
  }
  return pushed;
}

TEST(TraceCollector, ExportMatchesReferenceOnSeededRandomEvents) {
  const auto pushed = seeded_random_events();
  // Capacity 5000: every shard wraps.
  expect_same_bytes(export_jsonl(pushed, 5000), reference_jsonl(pushed, 5000));
  expect_same_bytes(export_jsonl(pushed, 8000), reference_jsonl(pushed, 8000));
}

/// The events parse_trace_line must give back for `pushed`: every double
/// the writer prints as `null` (NaN, ±inf) reads back as NaN.
std::vector<TraceEvent> as_read_back(std::vector<TraceEvent> events) {
  for (TraceEvent& ev : events) {
    for (double* x : {&ev.t_min, &ev.v}) {
      if (!std::isfinite(*x)) *x = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return events;
}

/// Bitwise equality, except that any NaN equals any NaN (payloads are
/// not part of the wire format).
void expect_same_event(const TraceEvent& got, const TraceEvent& want) {
  EXPECT_EQ(got.episode, want.episode);
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.sat, want.sat);
  EXPECT_EQ(got.peer, want.peer);
  EXPECT_EQ(got.a, want.a);
  for (const auto& [g, w] : {std::pair{got.t_min, want.t_min},
                             std::pair{got.v, want.v}}) {
    if (std::isnan(w)) {
      EXPECT_TRUE(std::isnan(g)) << g;
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g),
                std::bit_cast<std::uint64_t>(w))
          << g << " vs " << w;
    }
  }
}

/// Lines of the export of `pushed`, newlines stripped as getline does.
std::vector<std::string> exported_lines(
    const std::vector<std::vector<TraceEvent>>& pushed) {
  std::size_t capacity = 1;
  for (const auto& shard : pushed) capacity = std::max(capacity, shard.size());
  std::istringstream is(export_jsonl(pushed, capacity));
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

// parse(write(e)) == e, shard included, over the seeded-random events
// (shards 0-2) and the edge-value events (shard 3). The one event the
// parser refuses is the out-of-table type the writer prints as "unknown".
// A parser that reads two keys in swapped positions (v before a, say)
// fails here on every line.
TEST(ParseTraceLine, RoundTripsTheWriter) {
  std::vector<std::vector<TraceEvent>> pushed = seeded_random_events();
  pushed.push_back(edge_value_events());
  const auto lines = exported_lines(pushed);
  std::size_t at = 0;
  for (std::size_t s = 0; s < pushed.size(); ++s) {
    for (const TraceEvent& want : as_read_back(pushed[s])) {
      ASSERT_LT(at, lines.size());
      SCOPED_TRACE(lines[at]);
      const auto parsed = parse_trace_line(lines[at++]);
      if (to_string(want.type) == "unknown") {
        EXPECT_FALSE(parsed.has_value());
        continue;
      }
      ASSERT_TRUE(parsed.has_value());
      EXPECT_EQ(parsed->shard, static_cast<int>(s));
      expect_same_event(parsed->event, want);
    }
  }
  EXPECT_EQ(at, lines.size());
  // With its newline, as write_jsonl ends it, a line parses the same.
  const auto line = exported_lines({{make_event(5)}}).front();
  const auto parsed = parse_trace_line(line + "\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->event, make_event(5));
}

// A line cut anywhere (a partly written trace, a truncated copy) is not an
// event: every strict prefix of every reference line is rejected.
TEST(ParseTraceLine, RejectsEveryStrictPrefix) {
  std::vector<std::vector<TraceEvent>> pushed = seeded_random_events();
  pushed.push_back(edge_value_events());
  for (const std::string& line : exported_lines(pushed)) {
    for (std::size_t n = 0; n < line.size(); ++n) {
      ASSERT_FALSE(parse_trace_line(std::string_view(line).substr(0, n)))
          << "accepted prefix " << n << " of " << line;
    }
  }
}

/// `{"k":v,...}` with the writer's keys and values, in `order`.
std::string line_in_order(const std::vector<int>& order) {
  static const std::pair<std::string_view, std::string_view> kFields[] = {
      {"shard", "1"}, {"ep", "2"},   {"t", "3.5"}, {"type", "\"done\""},
      {"sat", "4"},   {"peer", "5"}, {"a", "6"},   {"v", "0.25"},
  };
  std::string line = "{";
  for (const int i : order) {
    if (line.size() > 1) line += ",";
    line.append("\"").append(kFields[i].first).append("\":");
    line.append(kFields[i].second);
  }
  return line + "}";
}

// The reader follows the writer's one key order; the same fields in any
// other order are a foreign line. A parser that accepts two keys in
// swapped positions — as one that searches for each key would — fails.
TEST(ParseTraceLine, RejectsKeysOutOfWriterOrder) {
  const std::vector<int> writer_order{0, 1, 2, 3, 4, 5, 6, 7};
  const auto parsed = parse_trace_line(line_in_order(writer_order));
  ASSERT_TRUE(parsed.has_value()) << line_in_order(writer_order);
  EXPECT_EQ(parsed->shard, 1);
  EXPECT_EQ(parsed->event.type, TraceEventType::kDone);
  EXPECT_EQ(parsed->event.v, 0.25);
  for (std::size_t i = 0; i < writer_order.size(); ++i) {
    for (std::size_t j = i + 1; j < writer_order.size(); ++j) {
      std::vector<int> order = writer_order;
      std::swap(order[i], order[j]);
      EXPECT_FALSE(parse_trace_line(line_in_order(order)).has_value())
          << line_in_order(order);
    }
  }
}

TEST(ParseTraceLine, RejectsForeignLines) {
  EXPECT_FALSE(parse_trace_line("").has_value());
  EXPECT_FALSE(parse_trace_line("not json").has_value());
  EXPECT_FALSE(parse_trace_line("{\"shard\":0}").has_value());
  EXPECT_FALSE(
      parse_trace_line("{\"shard\":0,\"ep\":1,\"t\":2,\"type\":\"bogus\","
                       "\"sat\":0,\"peer\":0,\"a\":0,\"v\":0}")
          .has_value());
}

TEST(TraceSummary, CountsTerminationsByCauseAndChainLength) {
  TraceCollector collector(16);
  collector.prepare(1);
  TraceEvent det;
  det.type = TraceEventType::kDetection;
  collector.shard(0)->push(det);
  TraceEvent term;
  term.type = TraceEventType::kTermTc2;
  term.a = 2;
  collector.shard(0)->push(term);
  term.type = TraceEventType::kTermWindow;
  term.a = 1;
  collector.shard(0)->push(term);
  collector.shard(0)->push(term);
  TraceEvent delivered;
  delivered.type = TraceEventType::kAlertDelivered;
  collector.shard(0)->push(delivered);

  std::ostringstream os;
  collector.write_jsonl(os);
  std::istringstream is(os.str() + "garbage line\n");
  const TraceSummary summary = summarize_trace(is);
  EXPECT_EQ(summary.events, 5);
  EXPECT_EQ(summary.detections, 1);
  EXPECT_EQ(summary.alerts_delivered, 1);
  EXPECT_EQ(summary.terminations, 3);
  EXPECT_EQ(summary.max_chain, 2);
  EXPECT_EQ(summary.termination.at("term_tc2").at(2), 1);
  EXPECT_EQ(summary.termination.at("term_window").at(1), 2);
}

// An episode can emit several term_* events (a TC-3 silent peer, then the
// predecessor's wait-deadline rescue). The cause table counts it once, by
// its first; its drops go to that same cause.
TEST(TraceSummary, CountsEpisodesByFirstTerminationCause) {
  std::vector<TraceEvent> events;
  const auto push = [&events](std::int64_t ep, TraceEventType type) {
    TraceEvent ev;
    ev.episode = ep;
    ev.type = type;
    events.push_back(ev);
  };
  push(0, TraceEventType::kXlinkDrop);
  push(0, TraceEventType::kTermTc3);
  push(0, TraceEventType::kTermWaitDeadline);
  push(1, TraceEventType::kTermWaitDeadline);
  push(2, TraceEventType::kTermTc3);
  push(2, TraceEventType::kXlinkDrop);
  std::istringstream is(export_jsonl({events}, events.size()));
  const TraceSummary summary = summarize_trace(is);
  EXPECT_EQ(summary.terminations, 4);
  EXPECT_EQ(summary.episodes_by_cause.at("term_tc3"), 2);
  EXPECT_EQ(summary.episodes_by_cause.at("term_wait_deadline"), 1);
  EXPECT_EQ(summary.drops_by_cause.at("term_tc3"), 2);
  EXPECT_EQ(summary.drops_by_cause.count("term_wait_deadline"), 0u);
}

// The writer prints a non-finite double as `null`; such a line is an event
// like any other, and summary.events counts it. A latency from a null time
// is NaN and stays out of the sorted sample.
TEST(TraceSummary, CountsLinesWithNullDoubles) {
  TraceEvent nan_v;
  nan_v.type = TraceEventType::kXlinkRecv;
  nan_v.v = std::numeric_limits<double>::quiet_NaN();
  TraceEvent inf_t;
  inf_t.type = TraceEventType::kDetection;
  inf_t.t_min = std::numeric_limits<double>::infinity();
  TraceEvent alert;
  alert.type = TraceEventType::kAlert;
  alert.t_min = 2.0;
  TraceEvent detection_1 = inf_t;
  detection_1.episode = 1;
  detection_1.t_min = 0.5;
  TraceEvent alert_1 = alert;
  alert_1.episode = 1;
  const std::string text =
      export_jsonl({{nan_v, inf_t, alert, detection_1, alert_1}}, 5);
  ASSERT_NE(text.find("\"v\":null}"), std::string::npos) << text;
  ASSERT_NE(text.find("\"t\":null,"), std::string::npos) << text;
  std::istringstream is(text);
  const TraceSummary summary = summarize_trace(is);
  EXPECT_EQ(summary.events, 5);
  EXPECT_EQ(summary.detections, 2);
  EXPECT_EQ(summary.latency_min, std::vector<double>{1.5});
}

}  // namespace
}  // namespace oaq
