#include "obs/metrics.hpp"

#include <ostream>

#include "common/error.hpp"
#include "obs/jsonfmt.hpp"

namespace oaq {

void MetricsRegistry::add(std::string_view counter, std::int64_t delta) {
  auto it = counters_.find(counter);
  if (it == counters_.end()) {
    counters_.emplace(std::string(counter), delta);
    return;
  }
  std::int64_t out = 0;
  OAQ_REQUIRE(!__builtin_add_overflow(it->second, delta, &out),
              "metrics counter overflow");
  it->second = out;
}

RunningStat& MetricsRegistry::stat_slot(std::string_view name) {
  auto it = stats_.find(name);
  if (it == stats_.end()) {
    it = stats_.emplace(std::string(name), RunningStat{}).first;
  }
  return it->second;
}

void MetricsRegistry::observe(std::string_view stat, double value) {
  stat_slot(stat).add(value);
}

void MetricsRegistry::observe(std::string_view stat,
                              const RunningStat& values) {
  stat_slot(stat).merge(values);
}

std::int64_t MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const RunningStat& MetricsRegistry::stat(std::string_view name) const {
  static const RunningStat kEmpty;
  const auto it = stats_.find(name);
  return it == stats_.end() ? kEmpty : it->second;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  // Names are escaped (quotes, backslashes, control chars); the repo's own
  // metric names are plain identifiers.
  os << "{\"schema\":\"" << kMetricsSchema << "\",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    os << (first ? "" : ",");
    write_json_string(os, name);
    os << ':' << value;
    first = false;
  }
  os << "},\"stats\":{";
  first = true;
  for (const auto& [name, stat] : stats_) {
    os << (first ? "" : ",");
    write_json_string(os, name);
    os << ":{\"count\":" << stat.count() << ",\"mean\":";
    write_json_double(os, stat.mean());
    os << ",\"min\":";
    write_json_double(os, stat.count() ? stat.min() : 0.0);
    os << ",\"max\":";
    write_json_double(os, stat.count() ? stat.max() : 0.0);
    os << ",\"stddev\":";
    write_json_double(os, stat.stddev());
    os << '}';
    first = false;
  }
  os << "}}";
}

}  // namespace oaq
