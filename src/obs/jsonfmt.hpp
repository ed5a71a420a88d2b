// Minimal JSON value formatting and parsing shared by the obs exporters.
//
// Doubles are rendered with std::to_chars shortest round-trip form: the
// bytes are a pure function of the bit pattern, so any value that is
// bit-deterministic across `jobs` serializes to identical text — the
// property the trace/metrics determinism suite diffs on. Non-finite
// doubles have no JSON literal and are rendered as `null` (the convention
// Chrome's trace viewer and most strict parsers accept).
//
// Bulk exporters (trace JSONL, ledger rows) do not go through `ostream <<`
// per field: they format each line into a kJsonLineMax stack buffer with
// the append_* helpers (memcpy for key text, std::to_chars for numbers,
// the same double rule) and hand the stream one write per line.
//
// MiniJson is the inverse direction: a small recursive-descent parser for
// the documents this repo emits (metrics/manifest/span/BENCH files), used
// by `oaqctl report`, `tools/bench_trend`, and the round-trip tests. It
// preserves object key order, which the exporters keep deterministic.
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace oaq {

/// Longest text append_json_double writes: sign, 17 significant digits,
/// point, `e-` and a 3-digit exponent ("-2.2250738585072014e-308").
inline constexpr std::size_t kJsonDoubleMaxChars = 24;

/// Longest decimal text of an integer type, sign included.
template <std::integral Int>
inline constexpr std::size_t kJsonIntMaxChars =
    static_cast<std::size_t>(std::numeric_limits<Int>::digits10) + 1 +
    (std::numeric_limits<Int>::is_signed ? 1 : 0);

/// Copies `text` to `out`; returns the end of what was written.
inline char* append_text(char* out, std::string_view text) {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

/// Appends an integer in decimal; needs kJsonIntMaxChars<Int> of room.
template <std::integral Int>
inline char* append_int(char* out, Int v) {
  return std::to_chars(out, out + kJsonIntMaxChars<Int>, v).ptr;
}

/// Appends a double as its shortest round-trip decimal form; non-finite
/// values (NaN, ±inf) become `null`. Needs kJsonDoubleMaxChars of room.
inline char* append_json_double(char* out, double v) {
  if (!std::isfinite(v)) return append_text(out, "null");
  return std::to_chars(out, out + kJsonDoubleMaxChars, v).ptr;
}

/// Writes a double by the append_json_double rule.
inline void write_json_double(std::ostream& os, double v) {
  char buf[kJsonDoubleMaxChars];
  os << std::string_view(
      buf, static_cast<std::size_t>(append_json_double(buf, v) - buf));
}

/// Size of the stack buffer a bulk exporter formats one line into before
/// its single `os.write`; each exporter static_asserts its longest line
/// against it.
inline constexpr std::size_t kJsonLineMax = 512;

/// Writes a quoted JSON string, escaping quotes, backslashes, and control
/// characters (named escapes where JSON has them, \u00XX otherwise).
inline void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Parsed JSON value. Objects keep their key order (the exporters write
/// deterministically ordered keys; round-trips must not reshuffle them).
class MiniJson {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<MiniJson> array;
  std::vector<std::pair<std::string, MiniJson>> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; null when absent or not an object.
  [[nodiscard]] const MiniJson* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Parses one JSON document (trailing whitespace allowed, trailing
  /// garbage rejected). Returns nullopt on any syntax error.
  [[nodiscard]] static std::optional<MiniJson> parse(std::string_view in) {
    std::size_t pos = 0;
    auto value = parse_value(in, pos);
    if (!value) return std::nullopt;
    skip_ws(in, pos);
    if (pos != in.size()) return std::nullopt;
    return value;
  }

 private:
  static void skip_ws(std::string_view in, std::size_t& pos) {
    while (pos < in.size() &&
           (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n' ||
            in[pos] == '\r')) {
      ++pos;
    }
  }

  static bool consume(std::string_view in, std::size_t& pos,
                      std::string_view word) {
    if (in.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  static std::optional<std::string> parse_string(std::string_view in,
                                                 std::size_t& pos) {
    if (pos >= in.size() || in[pos] != '"') return std::nullopt;
    ++pos;
    std::string out;
    while (pos < in.size()) {
      const char c = in[pos];
      if (c == '"') {
        ++pos;
        return out;
      }
      if (c == '\\') {
        if (pos + 1 >= in.size()) return std::nullopt;
        const char esc = in[pos + 1];
        pos += 2;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > in.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = in[pos + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += 10u + static_cast<unsigned>(h - 'a');
              else if (h >= 'A' && h <= 'F') code += 10u + static_cast<unsigned>(h - 'A');
              else return std::nullopt;
            }
            pos += 4;
            // The exporters only emit \u00XX control escapes; decode the
            // BMP point as UTF-8 so round-trips are lossless.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: return std::nullopt;
        }
        continue;
      }
      out += c;
      ++pos;
    }
    return std::nullopt;  // unterminated
  }

  static std::optional<MiniJson> parse_value(std::string_view in,
                                             std::size_t& pos) {
    skip_ws(in, pos);
    if (pos >= in.size()) return std::nullopt;
    MiniJson v;
    const char c = in[pos];
    if (c == 'n') {
      if (!consume(in, pos, "null")) return std::nullopt;
      v.kind = Kind::kNull;
      return v;
    }
    if (c == 't' || c == 'f') {
      v.kind = Kind::kBool;
      v.boolean = c == 't';
      if (!consume(in, pos, v.boolean ? "true" : "false")) return std::nullopt;
      return v;
    }
    if (c == '"') {
      auto s = parse_string(in, pos);
      if (!s) return std::nullopt;
      v.kind = Kind::kString;
      v.text = std::move(*s);
      return v;
    }
    if (c == '[') {
      ++pos;
      v.kind = Kind::kArray;
      skip_ws(in, pos);
      if (pos < in.size() && in[pos] == ']') {
        ++pos;
        return v;
      }
      while (true) {
        auto item = parse_value(in, pos);
        if (!item) return std::nullopt;
        v.array.push_back(std::move(*item));
        skip_ws(in, pos);
        if (pos >= in.size()) return std::nullopt;
        if (in[pos] == ',') {
          ++pos;
          continue;
        }
        if (in[pos] == ']') {
          ++pos;
          return v;
        }
        return std::nullopt;
      }
    }
    if (c == '{') {
      ++pos;
      v.kind = Kind::kObject;
      skip_ws(in, pos);
      if (pos < in.size() && in[pos] == '}') {
        ++pos;
        return v;
      }
      while (true) {
        skip_ws(in, pos);
        auto key = parse_string(in, pos);
        if (!key) return std::nullopt;
        skip_ws(in, pos);
        if (pos >= in.size() || in[pos] != ':') return std::nullopt;
        ++pos;
        auto item = parse_value(in, pos);
        if (!item) return std::nullopt;
        v.object.emplace_back(std::move(*key), std::move(*item));
        skip_ws(in, pos);
        if (pos >= in.size()) return std::nullopt;
        if (in[pos] == ',') {
          ++pos;
          continue;
        }
        if (in[pos] == '}') {
          ++pos;
          return v;
        }
        return std::nullopt;
      }
    }
    // Number (JSON syntax is a subset of what from_chars accepts; the
    // leading characters bound the token).
    const std::size_t start = pos;
    if (in[pos] == '-') ++pos;
    while (pos < in.size() &&
           (std::isdigit(static_cast<unsigned char>(in[pos])) != 0 ||
            in[pos] == '.' || in[pos] == 'e' || in[pos] == 'E' ||
            in[pos] == '+' || in[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return std::nullopt;
    double num = 0.0;
    const auto [end, ec] =
        std::from_chars(in.data() + start, in.data() + pos, num);
    if (ec != std::errc{} || end != in.data() + pos) return std::nullopt;
    v.kind = Kind::kNumber;
    v.number = num;
    return v;
  }
};

}  // namespace oaq
