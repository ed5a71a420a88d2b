#include "obs/manifest.hpp"

#include <ostream>

#include "obs/jsonfmt.hpp"

namespace oaq {

std::uint64_t RunManifest::config_digest() const {
  // FNV-1a 64-bit; the canonical input is the exact bytes a reader would
  // reconstruct from the exported config object.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [key, value] : config) {
    mix(key);
    mix("=");
    mix(value);
    mix("\n");
  }
  return h;
}

void RunManifest::write_json(std::ostream& os) const {
  os << "{\"schema\":\"" << kSchema << "\",\"tool\":";
  write_json_string(os, tool);
  os << ",\"seed\":" << seed << ",\"jobs\":" << jobs;
  os << ",\"config_digest\":\"";
  {
    constexpr char kHex[] = "0123456789abcdef";
    const std::uint64_t d = config_digest();
    for (int shift = 60; shift >= 0; shift -= 4) {
      os << kHex[(d >> shift) & 0xf];
    }
  }
  os << "\",\"git_describe\":";
  write_json_string(os, git_describe);
  os << ",\"build_type\":";
  write_json_string(os, build_type);
  os << ",\"compiler\":";
  write_json_string(os, compiler);
  os << ",\"config\":{";
  bool first = true;
  for (const auto& [key, value] : config) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, key);
    os << ':';
    write_json_string(os, value);
  }
  os << "},\"artifacts\":{";
  first = true;
  for (const auto& [kind, path] : artifacts) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, kind);
    os << ':';
    write_json_string(os, path);
  }
  os << '}';
  if (trace) {
    os << ",\"trace_events\":" << trace->events
       << ",\"trace_dropped\":" << trace->dropped;
  }
  os << "}\n";
}

}  // namespace oaq
