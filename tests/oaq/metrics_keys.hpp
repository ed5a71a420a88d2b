// The oaq-metrics-v3 key table of tools/README.md, per engine, for the
// fixed-key-set tests: every run of an engine must write exactly these
// keys, whatever its flags or its data.
#pragma once

#include <set>
#include <string>

#include "obs/metrics.hpp"

namespace oaq::metrics_keys {

/// A registry's keys as "counter:NAME" / "stat:NAME".
inline std::set<std::string> of(const MetricsRegistry& m) {
  std::set<std::string> keys;
  for (const auto& [name, value] : m.counters()) keys.insert("counter:" + name);
  for (const auto& [name, stat] : m.stats()) keys.insert("stat:" + name);
  return keys;
}

/// The families both engines write: link, kernel, fault, health,
/// visibility and invariant.
inline std::set<std::string> shared() {
  return {
      "counter:xlink.sent",
      "counter:xlink.delivered",
      "counter:xlink.dropped_loss",
      "counter:xlink.dropped_dead",
      "counter:xlink.dropped_link",
      "counter:sim.events",
      "stat:sim.peak_pending",
      "counter:net.retry.attempts",
      "counter:net.retry.exhausted",
      "counter:net.fault.injected",
      "counter:net.health.demoted",
      "counter:net.health.restored",
      "counter:net.health.probes",
      "counter:net.health.probations",
      "counter:episodes.reroutes",
      "counter:net.lifecycle.deaths",
      "counter:net.lifecycle.spares",
      "counter:visibility.pass_queries",
      "counter:visibility.pass_hits",
      "counter:visibility.cache_entries",
      "counter:invariant.violations",
  };
}

/// simulate_qos: its outcome keys plus the shared families.
inline std::set<std::string> simulate() {
  std::set<std::string> keys = shared();
  keys.insert({
      "counter:episodes",
      "counter:episodes.detected",
      "counter:episodes.unresolved",
      "counter:alerts.delivered",
      "counter:alerts.timely",
      "counter:alerts.untimely",
      "counter:alerts.duplicate_episodes",
      "counter:alerts.sent",
      "counter:coordination.requests",
      "stat:chain.length",
      "stat:alerts.reported_error_km",
  });
  return keys;
}

/// run_campaign: its outcome keys plus the shared families.
inline std::set<std::string> campaign() {
  std::set<std::string> keys = shared();
  keys.insert({
      "counter:campaign.replications",
      "counter:campaign.signals",
      "counter:alerts.delivered",
      "counter:alerts.untimely",
      "counter:alerts.duplicate_episodes",
      "counter:compute.contended",
      "stat:compute.queueing_delay_s",
      "stat:alerts.latency_min",
      "stat:chain.length",
  });
  return keys;
}

}  // namespace oaq::metrics_keys
