#include "obs/ledger.hpp"

#include <ostream>

#include "obs/jsonfmt.hpp"

namespace oaq {

void EpisodeLedger::reserve(std::size_t episodes) {
  if (episodes > rows_.size()) rows_.resize(episodes);
}

LedgerRow& EpisodeLedger::row_for(std::int64_t episode) {
  if (episode < 0) return global_;
  const auto index = static_cast<std::size_t>(episode);
  if (index >= rows_.size()) rows_.resize(index + 1);
  return rows_[index];
}

void EpisodeLedger::record_drop(std::int64_t episode, DropReason reason) {
  LedgerRow& r = row_for(episode);
  switch (reason) {
    case DropReason::kLoss: ++r.drops_loss; break;
    case DropReason::kDeadSender:
    case DropReason::kDeadReceiver:
    case DropReason::kUnregistered: ++r.drops_dead; break;
    case DropReason::kLinkDown: ++r.drops_link; break;
  }
}

void EpisodeLedger::record_retry(std::int64_t episode) {
  ++row_for(episode).retries;
}

void EpisodeLedger::record_retry_exhausted(std::int64_t episode) {
  ++row_for(episode).retries_exhausted;
}

void EpisodeLedger::record_fault(std::int64_t episode) {
  ++row_for(episode).faults;
}

void EpisodeLedger::record_reroute(std::int64_t episode) {
  ++row_for(episode).reroutes;
}

void EpisodeLedger::record_probation(std::int64_t episode) {
  ++row_for(episode).probations;
}

const LedgerRow& EpisodeLedger::row(std::int64_t episode) const {
  if (episode < 0 || static_cast<std::size_t>(episode) >= rows_.size()) {
    return global_;
  }
  return rows_[static_cast<std::size_t>(episode)];
}

LedgerRow EpisodeLedger::totals() const {
  LedgerRow total = global_;
  for (const LedgerRow& r : rows_) total.merge(r);
  return total;
}

void EpisodeLedger::merge(const EpisodeLedger& other) {
  reserve(other.rows_.size());
  for (std::size_t i = 0; i < other.rows_.size(); ++i) {
    rows_[i].merge(other.rows_[i]);
  }
  global_.merge(other.global_);
}

void EpisodeLedger::clear() {
  rows_.clear();
  global_ = {};
}

namespace {

// Key text of a row's fields, in write order before each value.
constexpr std::string_view kRowKeys[] = {
    "\"drops_loss\":", ",\"drops_dead\":", ",\"drops_link\":",
    ",\"retries\":", ",\"retries_exhausted\":", ",\"faults\":",
    ",\"reroutes\":", ",\"probations\":",
};
constexpr std::string_view kRowOpen = "{\"ep\":";

// Longest piece written at once: a row, `,{"ep":N,` + fields + `}`
// (the global and totals pieces frame the same fields in 24 bytes).
constexpr std::size_t max_row_line() {
  std::size_t n = kRowOpen.size() + kJsonIntMaxChars<std::size_t> + 3;
  for (const auto key : kRowKeys) {
    n += key.size() + kJsonIntMaxChars<std::int64_t>;
  }
  return n;
}
static_assert(max_row_line() <= kJsonLineMax,
              "a ledger row must fit the export's line buffer");

char* append_row_fields(char* out, const LedgerRow& r) {
  const std::int64_t values[] = {r.drops_loss, r.drops_dead,
                                 r.drops_link, r.retries,
                                 r.retries_exhausted, r.faults,
                                 r.reroutes, r.probations};
  for (std::size_t i = 0; i < std::size(kRowKeys); ++i) {
    out = append_int(append_text(out, kRowKeys[i]), values[i]);
  }
  return out;
}

}  // namespace

void EpisodeLedger::write_json(std::ostream& os) const {
  os << "{\"schema\":\"oaq-ledger-v1\",\"episodes\":" << rows_.size()
     << ",\"rows\":[";
  char line[kJsonLineMax];
  bool first = true;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (!rows_[i].any()) continue;
    char* p = line;
    if (!first) *p++ = ',';
    first = false;
    p = append_int(append_text(p, kRowOpen), i);
    *p++ = ',';
    p = append_row_fields(p, rows_[i]);
    *p++ = '}';
    os.write(line, p - line);
  }
  char* p = append_row_fields(append_text(line, "],\"global\":{"), global_);
  os.write(line, append_text(p, "},\"totals\":{") - line);
  p = append_row_fields(line, totals());
  os.write(line, append_text(p, "}}\n") - line);
}

}  // namespace oaq
