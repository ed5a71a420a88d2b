// MetricsRegistry: counter/stat semantics, the shard-order stat fold the
// engines export through (observe of a whole RunningStat), and the
// oaq-metrics-v3 JSON layout.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace oaq {
namespace {

TEST(MetricsRegistry, CountersAccumulateAndDefaultToZero) {
  MetricsRegistry m;
  EXPECT_EQ(m.counter("episodes"), 0);
  m.add("episodes");
  m.add("episodes", 4);
  EXPECT_EQ(m.counter("episodes"), 5);
  EXPECT_EQ(m.counters().size(), 1u);
}

TEST(MetricsRegistry, CounterOverflowIsGuarded) {
  MetricsRegistry m;
  m.add("big", std::numeric_limits<std::int64_t>::max());
  EXPECT_THROW(m.add("big", 1), PreconditionError);
}

TEST(MetricsRegistry, ObserveFeedsRunningStat) {
  MetricsRegistry m;
  m.observe("chain.length", 1.0);
  m.observe("chain.length", 3.0);
  const RunningStat& s = m.stat("chain.length");
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  // Unknown stat: an empty RunningStat, not an error.
  EXPECT_EQ(m.stat("absent").count(), 0u);
}

TEST(MetricsRegistry, MergeMatchesSerialRecording) {
  // Two shard streams folded into the registry in shard order must equal
  // one registry fed the same stream serially — how the engines export
  // the RunningStats their accumulators merged.
  MetricsRegistry serial;
  RunningStat shard0;
  RunningStat shard1;
  for (const double x : {1.0, 4.0, 2.5}) {
    serial.observe("v", x);
    shard0.add(x);
  }
  for (const double x : {7.0, 0.5}) {
    serial.observe("v", x);
    shard1.add(x);
  }

  MetricsRegistry merged;
  merged.observe("v", shard0);
  merged.observe("v", shard1);
  EXPECT_EQ(merged.stat("v").count(), serial.stat("v").count());
  EXPECT_DOUBLE_EQ(merged.stat("v").min(), serial.stat("v").min());
  EXPECT_DOUBLE_EQ(merged.stat("v").max(), serial.stat("v").max());
  EXPECT_NEAR(merged.stat("v").mean(), serial.stat("v").mean(), 1e-12);
  EXPECT_NEAR(merged.stat("v").variance(), serial.stat("v").variance(),
              1e-12);

  // Folding into a fresh key is an exact copy; an empty stream still
  // creates its key (every oaq-metrics-v3 key is always written).
  MetricsRegistry copy;
  copy.observe("v", shard0);
  copy.observe("idle", RunningStat{});
  EXPECT_EQ(copy.stat("v").mean(), shard0.mean());
  EXPECT_EQ(copy.stat("v").stddev(), shard0.stddev());
  EXPECT_EQ(copy.stats().count("idle"), 1u);
  EXPECT_EQ(copy.stat("idle").count(), 0u);
}

TEST(MetricsRegistry, MergeIsDeterministicForAnyGrouping) {
  // Folding shard streams ((a ⊕ b) ⊕ c) into a registry must give the same
  // counts and bit-identical moments as folding the shards into one
  // accumulator first — the property that lets parallel_reduce merge the
  // engines' accumulators before the registry is written.
  auto record = [](RunningStat& s, int lo, int hi) {
    for (int i = lo; i < hi; ++i) s.add(0.1 * i);
  };
  RunningStat a;
  RunningStat b;
  RunningStat c;
  record(a, 0, 5);
  record(b, 5, 9);
  record(c, 9, 12);
  MetricsRegistry left;
  left.observe("x", a);
  left.observe("x", b);
  left.observe("x", c);

  RunningStat folded = a;
  folded.merge(b);
  folded.merge(c);
  MetricsRegistry right;
  right.observe("x", folded);

  EXPECT_EQ(left.stat("x").count(), right.stat("x").count());
  EXPECT_EQ(left.stat("x").mean(), right.stat("x").mean());
  EXPECT_EQ(left.stat("x").stddev(), right.stat("x").stddev());
}

TEST(MetricsRegistry, WriteJsonIsSortedAndParseable) {
  MetricsRegistry m;
  m.add("b.counter", 2);
  m.add("a.counter", 1);
  m.observe("s", 2.0);
  std::ostringstream os;
  m.write_json(os);
  const std::string json = os.str();
  // The schema tag comes first; keys appear sorted (map order) —
  // deterministic bytes. No gauges object.
  EXPECT_EQ(json.rfind("{\"schema\":\"oaq-metrics-v3\",", 0), 0u);
  EXPECT_LT(json.find("a.counter"), json.find("b.counter"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_EQ(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"stats\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

}  // namespace
}  // namespace oaq
