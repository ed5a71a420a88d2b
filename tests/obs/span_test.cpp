// SpanArena / SpanProfiler unit tests plus the jobs-independence
// contract: the span tree's structure, counts, and items are bit-identical
// for any worker count (only wall times vary), pinned by byte-comparing
// the zero-wall Chrome JSON export across jobs 1, 4, 8.
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "oaq/montecarlo.hpp"
#include "orbit/constellation_builder.hpp"

namespace oaq {
namespace {

TEST(SpanArena, AggregatesRepeatedPathsIntoOneNode) {
  SpanArena arena;
  for (int i = 0; i < 100; ++i) {
    arena.enter("outer");
    arena.enter("inner");
    arena.add_items(2);
    arena.exit();
    arena.exit();
  }
  ASSERT_TRUE(arena.balanced());
  ASSERT_EQ(arena.nodes().size(), 2u);  // one node per path, not per entry
  const auto& outer = arena.nodes()[0];
  const auto& inner = arena.nodes()[1];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(outer.count, 100);
  EXPECT_EQ(outer.first_child, 1);
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, 0);
  EXPECT_EQ(inner.count, 100);
  EXPECT_EQ(inner.items, 200);
  EXPECT_GE(inner.wall_ns, 0);
  EXPECT_GE(outer.wall_ns, inner.wall_ns);  // inclusive time nests
}

TEST(SpanArena, SameNameUnderDifferentParentsIsDifferentNode) {
  SpanArena arena;
  arena.enter("a");
  arena.enter("work");
  arena.exit();
  arena.exit();
  arena.enter("b");
  arena.enter("work");
  arena.exit();
  arena.exit();
  ASSERT_EQ(arena.nodes().size(), 4u);  // a, a/work, b, b/work
  EXPECT_EQ(arena.nodes()[1].parent, 0);
  EXPECT_EQ(arena.nodes()[3].parent, 2);
}

TEST(SpanArena, SiblingOrderIsDiscoveryOrder) {
  SpanArena arena;
  for (const char* name : {"second", "first", "second", "third"}) {
    arena.enter(name);
    arena.exit();
  }
  ASSERT_EQ(arena.nodes().size(), 3u);
  EXPECT_STREQ(arena.nodes()[0].name, "second");
  EXPECT_EQ(arena.nodes()[0].count, 2);
  EXPECT_STREQ(arena.nodes()[1].name, "first");
  EXPECT_STREQ(arena.nodes()[2].name, "third");
}

TEST(SpanArena, LongNamesTruncateWithoutAllocatingOrColliding) {
  SpanArena arena;
  const std::string long_name(kSpanNameCapacity + 20, 'x');
  arena.enter(long_name);
  arena.exit();
  ASSERT_EQ(arena.nodes().size(), 1u);
  EXPECT_EQ(std::string(arena.nodes()[0].name).size(), kSpanNameCapacity);
  // Re-entering the same long name reuses the truncated node.
  arena.enter(long_name);
  arena.exit();
  EXPECT_EQ(arena.nodes().size(), 1u);
  EXPECT_EQ(arena.nodes()[0].count, 2);
}

TEST(SpanArena, ClearResetsRootsAndNodes) {
  SpanArena arena;
  arena.enter("root");
  arena.exit();
  arena.clear();
  EXPECT_TRUE(arena.nodes().empty());
  arena.enter("other");
  arena.exit();
  ASSERT_EQ(arena.nodes().size(), 1u);
  EXPECT_STREQ(arena.nodes()[0].name, "other");
}

TEST(ScopedSpan, NullArenaIsANoOp) {
  const ScopedSpan span(nullptr, "ignored");  // must not crash
}

TEST(SpanProfiler, PrepareDropsPreviousRun) {
  SpanProfiler profiler;
  profiler.prepare(2);
  profiler.shard_arena(0)->enter("stale");
  profiler.shard_arena(0)->exit();
  profiler.prepare(3);
  EXPECT_EQ(profiler.shards(), 3);
  EXPECT_TRUE(profiler.shard_arena(0)->nodes().empty());
}

TEST(SpanProfiler, ChromeExportShape) {
  SpanProfiler profiler;
  profiler.prepare(1);
  {
    const ScopedSpan root(profiler.main_arena(), "root");
    const ScopedSpan child(profiler.main_arena(), "child");
  }
  {
    const ScopedSpan shard(profiler.shard_arena(0), "shard");
  }
  std::ostringstream os;
  profiler.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"root\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"child\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shard-0\""), std::string::npos);
}

/// Zero-wall span export of one simulate_qos run; `constellation` (null =
/// analytic) selects geometric mode.
std::string span_export(int jobs, const Constellation* constellation) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = constellation != nullptr ? 300 : 2000;
  cfg.seed = 11;
  cfg.jobs = jobs;
  cfg.constellation = constellation;
  SpanProfiler profiler;
  cfg.spans = &profiler;
  const SimulatedQos qos = simulate_qos(cfg);
  EXPECT_EQ(qos.episodes, cfg.episodes);
  std::ostringstream os;
  profiler.write_chrome_json(os, /*zero_wall=*/true);
  return os.str();
}

TEST(SpanDeterminism, TreeIsByteIdenticalAcrossWorkerCounts) {
  const Constellation iridium =
      ConstellationBuilder::preset("iridium-next").build();
  for (const Constellation* c : {static_cast<const Constellation*>(nullptr),
                                 &iridium}) {
    const bool geometric = c != nullptr;
    const std::string serial = span_export(1, c);
    EXPECT_EQ(serial, span_export(4, c)) << "geometric=" << geometric;
    EXPECT_EQ(serial, span_export(8, c)) << "geometric=" << geometric;
    // The tree is non-trivial: harness phases plus per-shard work.
    EXPECT_NE(serial.find("simulate_qos"), std::string::npos);
    EXPECT_NE(serial.find("merge"), std::string::npos);
    EXPECT_NE(serial.find("episodes"), std::string::npos);
  }
}

}  // namespace
}  // namespace oaq
