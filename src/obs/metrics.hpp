// Metrics registry: the `oaq-metrics-v3` export of a Monte-Carlo run.
//
// A MetricsRegistry is a named bag of counters (int64) and value stats
// (RunningStat). The engines do not record into it while they run: shards
// and replications add into fixed fields of the accumulators they already
// merge in shard order, and each engine writes the registry once, from
// the merged result (simulate_qos / run_campaign; the key table is in
// tools/README.md). Every key of an engine is always written — zero, or a
// stat with count 0, when idle — so one schema serves every flag set.
//
// A disabled registry is a null pointer in the run configuration.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "common/stats.hpp"

namespace oaq {

/// The `"schema"` tag of every metrics file this build writes; readers
/// reject any other (older schemas had other key sets).
inline constexpr std::string_view kMetricsSchema = "oaq-metrics-v3";

/// Named counters and value stats with a sorted-key JSON export.
class MetricsRegistry {
 public:
  /// Increment a counter (creating it at zero). Overflow-guarded.
  void add(std::string_view counter, std::int64_t delta = 1);

  /// Fold `value` into a named RunningStat (creating it).
  void observe(std::string_view stat, double value);

  /// Fold a whole stream into a named RunningStat (creating it, even when
  /// `values` is empty) via RunningStat::merge — into an empty stat that
  /// is an exact copy, so a stat accumulated elsewhere exports unchanged.
  void observe(std::string_view stat, const RunningStat& values);

  /// Counter value; 0 when never incremented.
  [[nodiscard]] std::int64_t counter(std::string_view name) const;
  /// Stat by name; an empty RunningStat when never observed.
  [[nodiscard]] const RunningStat& stat(std::string_view name) const;

  [[nodiscard]] const std::map<std::string, std::int64_t, std::less<>>&
  counters() const { return counters_; }
  [[nodiscard]] const std::map<std::string, RunningStat, std::less<>>& stats()
      const { return stats_; }

  /// One-object JSON export with sorted keys (deterministic bytes):
  /// {"schema":"oaq-metrics-v3","counters":{...},
  ///  "stats":{"name":{"count":..,"mean":..,"min":..,"max":..,"stddev":..}}}
  void write_json(std::ostream& os) const;

 private:
  RunningStat& stat_slot(std::string_view name);

  std::map<std::string, std::int64_t, std::less<>> counters_;
  std::map<std::string, RunningStat, std::less<>> stats_;
};

}  // namespace oaq
