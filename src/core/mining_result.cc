#include "src/core/mining_result.h"

#include <algorithm>
#include <iterator>

#include "src/util/string_util.h"

namespace pfci {

const char* FcpMethodName(FcpMethod method) {
  switch (method) {
    case FcpMethod::kUndecided:
      return "undecided";
    case FcpMethod::kZeroByCount:
      return "zero-by-count";
    case FcpMethod::kBoundsDecided:
      return "bounds";
    case FcpMethod::kExact:
      return "exact";
    case FcpMethod::kSampled:
      return "sampled";
  }
  return "unknown";
}

// Table guard: every std::uint64_t field of MiningStats has a
// kStatsCounters row, plus 4 doubles and (Outcome + 2 bools, padded to
// one word). A counter added without a row changes the size and fails
// this assert.
static_assert(sizeof(MiningStats) ==
                  std::size(kStatsCounters) * sizeof(std::uint64_t) +
                      4 * sizeof(double) + 8,
              "MiningStats layout changed: add the new counter's "
              "kStatsCounters row");

// The snapshot slots are a permutation of 0..kNumSnapshotCounters-1.
static_assert([] {
  std::size_t seen = 0;
  for (const StatsCounter& row : kStatsCounters) {
    if (row.snapshot_slot < 0) continue;
    const std::size_t slot = static_cast<std::size_t>(row.snapshot_slot);
    if (slot >= kNumSnapshotCounters || (seen >> slot & 1) != 0) return false;
    seen |= std::size_t{1} << slot;
  }
  return true;
}());

void MiningStats::MergeCounters(const MiningStats& part) {
  for (const StatsCounter& row : kStatsCounters) {
    if (row.merged) this->*row.member += part.*row.member;
  }
}

std::string MiningStats::ToString() const {
  std::string out;
  for (const StatsCounter& row : kStatsCounters) {
    if (row.text == nullptr) continue;
    if (!out.empty()) out += ' ';
    out += row.text;
    out += '=' + std::to_string(this->*row.member);
  }
  out += " outcome=";
  out += OutcomeName(outcome);
  if (resumed) out += " resumed=1";
  if (snapshot_bytes > 0) {
    out += " snapshot_bytes=" + std::to_string(snapshot_bytes);
  }
  if (batch_size > 0) {
    out += " batch=" + std::to_string(batch_size) + "/" +
           std::to_string(batch_groups) +
           " shared_dp_hits=" + std::to_string(shared_dp_hits) +
           " queued_micros=" + std::to_string(queued_micros);
  }
  out += " time=" + FormatDouble(seconds, 4) + "s";
  return out;
}

std::string MiningStats::ToJson() const {
  std::string out = "{\"schema\":6";
  for (const StatsCounter& row : kStatsCounters) {
    out += ",\"";
    out += row.json;
    out += "\":" + std::to_string(this->*row.member);
  }
  out += ",\"outcome\":\"";
  out += OutcomeName(outcome);
  out += "\"";
  out += ",\"truncated\":";
  out += truncated ? "true" : "false";
  out += ",\"resumed\":";
  out += resumed ? "true" : "false";
  // Round-trip formatting keeps the JSON byte-stable across platforms:
  // the shortest digit string that reparses to the exact double, rather
  // than a fixed precision that can round differently at the boundary.
  out += ",\"seconds\":" + FormatDoubleRoundTrip(seconds);
  out += ",\"candidate_seconds\":" + FormatDoubleRoundTrip(candidate_seconds);
  out += ",\"search_seconds\":" + FormatDoubleRoundTrip(search_seconds);
  out += ",\"merge_seconds\":" + FormatDoubleRoundTrip(merge_seconds);
  out += "}";
  return out;
}

void MiningStats::EmitTrace(TraceSink* sink) const {
  if (sink == nullptr) return;
  for (const StatsCounter& row : kStatsCounters) {
    if (row.trace != nullptr) TraceCounter(sink, row.trace, this->*row.member);
  }
  TraceCounter(sink, "truncated", truncated ? 1 : 0);
}

void MiningResult::Sort() {
  std::sort(itemsets.begin(), itemsets.end());
}

const PfciEntry* MiningResult::Find(const Itemset& items) const {
  for (const PfciEntry& entry : itemsets) {
    if (entry.items == items) return &entry;
  }
  return nullptr;
}

std::string MiningResult::ToString(bool letters) const {
  std::string out;
  for (const PfciEntry& entry : itemsets) {
    out += entry.items.ToString(letters);
    out += " fcp=" + FormatDouble(entry.fcp, 6);
    out += " prF=" + FormatDouble(entry.pr_f, 6);
    out += " [";
    out += FcpMethodName(entry.method);
    out += "]\n";
  }
  return out;
}

}  // namespace pfci
