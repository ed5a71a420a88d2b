// Run-manifest export (ISSUE 7 satellite).
//
// A trace or metrics file alone does not say how it was produced; the
// manifest records the reproduction recipe — seed, jobs, a digest of the
// full configuration, schema version, and build provenance — as a
// SEPARATE JSON file next to the golden-pinned artifacts, so the pinned
// bytes stay untouched while every export becomes self-describing.
//
// The config digest is FNV-1a over the canonical "key=value\n" lines in
// insertion order: two runs with the same digest ran the same
// configuration (modulo hash collision), which `oaqctl report` and CI
// artifact triage key on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace oaq {

/// Reproduction recipe of one CLI run.
struct RunManifest {
  static constexpr std::string_view kSchema = "oaq-manifest-v1";

  std::string tool;          ///< subcommand ("simulate", "campaign", ...)
  std::uint64_t seed = 0;
  int jobs = 0;              ///< requested (0 = auto)
  std::string git_describe;  ///< build-time `git describe` (may be empty)
  std::string build_type;    ///< CMAKE_BUILD_TYPE at compile time
  std::string compiler;      ///< __VERSION__ of the building compiler
  /// Canonical configuration lines, in insertion order (the digest input).
  std::vector<std::pair<std::string, std::string>> config;
  /// Artifact kind → path ("trace" → trace.jsonl, ...).
  std::vector<std::pair<std::string, std::string>> artifacts;
  /// Events the run traced and how many of them the per-shard rings
  /// overwrote; written as `trace_events` / `trace_dropped` when a trace
  /// file is written, absent otherwise.
  struct TraceTotals {
    std::uint64_t events = 0;
    std::uint64_t dropped = 0;
  };
  std::optional<TraceTotals> trace;

  void add_config(std::string key, std::string value) {
    config.emplace_back(std::move(key), std::move(value));
  }
  void add_artifact(std::string kind, std::string path) {
    artifacts.emplace_back(std::move(kind), std::move(path));
  }

  /// FNV-1a 64-bit over "key=value\n" config lines in order.
  [[nodiscard]] std::uint64_t config_digest() const;

  /// One JSON object (schema, identity, digest as hex, config, artifacts,
  /// trace totals).
  void write_json(std::ostream& os) const;
};

}  // namespace oaq
