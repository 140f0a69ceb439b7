// Result and statistics types shared by all miners.
#ifndef PFCI_CORE_MINING_RESULT_H_
#define PFCI_CORE_MINING_RESULT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/data/itemset.h"
#include "src/util/runtime.h"
#include "src/util/trace.h"

namespace pfci {

/// How the frequent closed probability of a reported itemset was obtained.
enum class FcpMethod {
  kUndecided,      ///< Not evaluated.
  kZeroByCount,    ///< A same-count superset exists: PrFC is exactly 0.
  kBoundsDecided,  ///< Lemma 4.4 bounds alone settled the pfct comparison.
  kExact,          ///< Inclusion-exclusion (exact).
  kSampled,        ///< ApproxFCP Monte-Carlo estimate.
};

/// Human-readable name of a method.
const char* FcpMethodName(FcpMethod method);

/// One mined probabilistic frequent closed itemset.
struct PfciEntry {
  Itemset items;
  double fcp = 0.0;        ///< (Estimated) frequent closed probability.
  double pr_f = 0.0;       ///< Frequent probability.
  double fcp_lower = 0.0;  ///< Lemma 4.4 lower bound (0 if bounds off).
  double fcp_upper = 1.0;  ///< Lemma 4.4 upper bound (pr_f if bounds off).
  FcpMethod method = FcpMethod::kUndecided;

  friend bool operator<(const PfciEntry& a, const PfciEntry& b) {
    return a.items < b.items;
  }
};

/// The entry of a frequentness-only miner (PFI, expected support and
/// their item-level counterparts): the measure in pr_f and fcp_upper,
/// fcp 0, method undecided.
inline PfciEntry FrequentnessEntry(const Itemset& items, double measure) {
  PfciEntry entry;
  entry.items = items;
  entry.pr_f = measure;
  entry.fcp = 0.0;
  entry.fcp_upper = measure;
  return entry;
}

/// Work counters of a mining run (reported by the bench harness).
struct MiningStats {
  std::uint64_t nodes_visited = 0;
  std::uint64_t pruned_by_chernoff = 0;
  std::uint64_t pruned_by_frequency = 0;  ///< Exact PrF <= pfct.
  std::uint64_t pruned_by_superset = 0;
  std::uint64_t pruned_by_subset = 0;
  std::uint64_t decided_by_bounds = 0;
  std::uint64_t zero_by_count = 0;
  std::uint64_t exact_fcp_computations = 0;
  std::uint64_t sampled_fcp_computations = 0;
  std::uint64_t total_samples = 0;
  std::uint64_t dp_runs = 0;  ///< Exact Poisson-binomial DP executions.
  /// FCP evaluations degraded from exact inclusion-exclusion to the
  /// ApproxFCP sampler under deadline pressure (DESIGN.md §10). Always 0
  /// without a deadline, so the determinism contract is unaffected.
  std::uint64_t degraded_fcp_evals = 0;
  /// Tid-set intersection/difference/subset operations performed by the
  /// search layers (candidate generation, superset checks, extension-event
  /// construction). Excludes the sampler's per-sample bit tests and the
  /// exact inclusion-exclusion inner loops.
  std::uint64_t intersections = 0;

  /// Session evaluation-cache accounting (stats-json schema v4; DESIGN.md
  /// §11). All zero outside a MiningSession. cache_hits/cache_misses
  /// count PrF/esup probes served from / absent from the cross-request
  /// cache; dp_reused is the subset of hits answered from a stored
  /// Poisson-binomial tail table (a DP the run did not have to execute);
  /// cache_bytes is the cache's resident size after the run. Cached
  /// values are exact, so these counters never affect results; unlike
  /// the other counters, hit/miss totals may vary with scheduling when
  /// threads race on the same first evaluation.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t dp_reused = 0;
  std::uint64_t cache_bytes = 0;

  /// Size in bytes of the run snapshot written by Mine() when a
  /// suspend-armed run drained (stats-json schema v5; DESIGN.md §14).
  /// 0 when no snapshot was requested or the run completed.
  std::uint64_t snapshot_bytes = 0;

  /// Batch execution accounting (stats-json schema v6; DESIGN.md §15).
  /// Stamped by the serving layer after the run finishes — all zero for
  /// a standalone Mine()/session.Mine() call, and excluded from
  /// MergeCounters (they describe the batch around the run, not work
  /// inside it). batch_size/batch_groups are the planned batch's totals,
  /// identical on every member result; shared_dp_hits is this member's
  /// DP-table reuse attributable to the batch's shared pass: the subset
  /// of dp_reused served from tables another run stored (the run's
  /// evaluator counts it, FrequentProbability::shared_dp_reused), kept
  /// for non-leader group members and 0 for the group leader that paid
  /// for the tables; queued_micros is the wall time from batch
  /// submission (or Submit()) to this member starting to execute.
  std::uint64_t batch_size = 0;
  std::uint64_t batch_groups = 0;
  std::uint64_t shared_dp_hits = 0;
  std::uint64_t queued_micros = 0;
  double seconds = 0.0;

  /// Wall-clock seconds per phase (stats-json schema v2). A phase that an
  /// algorithm does not have stays 0. `candidate_seconds` covers the
  /// first-level candidate construction (MPFCI/TopK: Lemma 4.1 filter;
  /// Naive: the whole PFI stage), `search_seconds` the enumeration /
  /// checking phase, and `merge_seconds` the deterministic cross-thread
  /// merge plus the canonical sort.
  double candidate_seconds = 0.0;
  double search_seconds = 0.0;
  double merge_seconds = 0.0;

  /// How the run ended (schema v3). Anything but kComplete means the
  /// itemset list is a verified prefix of the full answer (every emitted
  /// entry is fully decided and matches an unbudgeted run; see DESIGN.md
  /// §10).
  Outcome outcome = Outcome::kComplete;

  /// Whether any entry of the full answer may be missing (set together
  /// with a non-complete outcome).
  bool truncated = false;

  /// Whether this run was resumed from a snapshot (schema v5). Counters
  /// then include the suspended run's base totals, so a resumed run's
  /// deterministic counters match an uninterrupted run's.
  bool resumed = false;

  /// Adds `part`'s per-work counters (the kStatsCounters rows marked
  /// `merged`) into this object. This is the single merge point for
  /// per-task / per-evaluation counter partials: dp_runs and the cache_*
  /// counters are excluded (they live on the shared FrequentProbability
  /// evaluator and are folded in once by the coordinating thread), as
  /// are the batch stamps and the wall-clock and outcome fields.
  void MergeCounters(const MiningStats& part);

  std::string ToString() const;

  /// One JSON object line with every counter plus seconds, for scripted
  /// regression tracking (schema documented in docs/FORMATS.md; the
  /// `schema` field is 6 and the key set is append-only).
  std::string ToJson() const;

  /// Emits one `counter` trace event per traced kStatsCounters row, in
  /// table order, then `truncated`. Call after the deterministic merge
  /// so values are thread-count independent. No-op when `sink` is null.
  void EmitTrace(TraceSink* sink) const;
};

/// One row of the MiningStats counter table.
struct StatsCounter {
  std::uint64_t MiningStats::*member;
  const char* json;   ///< ToJson key.
  const char* text;   ///< ToString key; null: not on the text line.
  const char* trace;  ///< Trace counter name; null: not traced.
  bool merged;        ///< Summed by MergeCounters.
  int snapshot_slot;  ///< Position on the snapshot v1 `stats` line; -1: none.
};

/// Every std::uint64_t counter of MiningStats, in ToJson key order. The
/// single list behind MergeCounters, ToString, ToJson, EmitTrace and the
/// run snapshot's base counters: a new counter is one field plus one row
/// (a size guard in mining_result.cc fails the build otherwise). The
/// wire names and orders are frozen: the goldens pin the JSON keys and
/// trace names, and snapshots written by older builds must still parse,
/// so snapshot slots keep their v1 order (degraded_fcp_evals before
/// intersections).
inline constexpr StatsCounter kStatsCounters[] = {
    // The paper's per-rule pruning attribution, under stable trace names
    // (pruned_by_frequency is "threshold_pruned": the exact PrF <= pfct
    // rejection; total_samples is "samples_drawn": the FPRAS budget).
    {&MiningStats::nodes_visited, "nodes_visited", "nodes", "nodes_expanded",
     true, 0},
    {&MiningStats::pruned_by_chernoff, "pruned_by_chernoff", "ch_pruned",
     "chernoff_pruned", true, 1},
    {&MiningStats::pruned_by_frequency, "pruned_by_frequency", "freq_pruned",
     "threshold_pruned", true, 2},
    {&MiningStats::pruned_by_superset, "pruned_by_superset", "super_pruned",
     "superset_pruned", true, 3},
    {&MiningStats::pruned_by_subset, "pruned_by_subset", "sub_pruned",
     "subset_pruned", true, 4},
    {&MiningStats::decided_by_bounds, "decided_by_bounds", "bounds_decided",
     "bounds_decided", true, 5},
    {&MiningStats::zero_by_count, "zero_by_count", "zero_by_count",
     "zero_by_count", true, 6},
    {&MiningStats::exact_fcp_computations, "exact_fcp_computations",
     "exact_fcp", "exact_fcp", true, 7},
    {&MiningStats::sampled_fcp_computations, "sampled_fcp_computations",
     "sampled_fcp", "sampled_fcp", true, 8},
    {&MiningStats::total_samples, "total_samples", "samples", "samples_drawn",
     true, 9},
    {&MiningStats::dp_runs, "dp_runs", "dp_runs", "dp_runs", false, 10},
    {&MiningStats::intersections, "intersections", "intersections",
     "intersections", true, 12},
    {&MiningStats::degraded_fcp_evals, "degraded_fcp_evals", "degraded_fcp",
     "degraded_fcp_evals", true, 11},
    {&MiningStats::cache_hits, "cache_hits", "cache_hits", nullptr, false, -1},
    {&MiningStats::cache_misses, "cache_misses", "cache_misses", nullptr,
     false, -1},
    {&MiningStats::dp_reused, "dp_reused", "dp_reused", nullptr, false, -1},
    {&MiningStats::cache_bytes, "cache_bytes", nullptr, nullptr, false, -1},
    {&MiningStats::snapshot_bytes, "snapshot_bytes", nullptr, nullptr, false,
     -1},
    {&MiningStats::batch_size, "batch_size", nullptr, nullptr, false, -1},
    {&MiningStats::batch_groups, "batch_groups", nullptr, nullptr, false, -1},
    {&MiningStats::shared_dp_hits, "shared_dp_hits", nullptr, nullptr, false,
     -1},
    {&MiningStats::queued_micros, "queued_micros", nullptr, nullptr, false,
     -1},
};

/// Counters carried on the snapshot v1 `stats` line (rows with a slot).
inline constexpr std::size_t kNumSnapshotCounters = [] {
  std::size_t n = 0;
  for (const StatsCounter& row : kStatsCounters) {
    if (row.snapshot_slot >= 0) ++n;
  }
  return n;
}();

/// Output of a miner: the qualifying itemsets plus run statistics.
struct MiningResult {
  std::vector<PfciEntry> itemsets;
  MiningStats stats;

  /// Human-readable reason when outcome() != kComplete (the validation
  /// error for kInvalidRequest, a summary of the tripped limit otherwise).
  std::string status_message;

  /// How the run ended (mirrors stats.outcome).
  Outcome outcome() const { return stats.outcome; }

  /// Whether the run completed normally. A false return still carries a
  /// verified partial result in `itemsets` (empty for kInvalidRequest).
  bool ok() const { return stats.outcome == Outcome::kComplete; }

  /// Sorts entries lexicographically (canonical comparison order).
  void Sort();

  /// Looks up an entry by itemset; nullptr if absent.
  const PfciEntry* Find(const Itemset& items) const;

  /// Renders "itemset fcp" lines (letters=true prints a..z item names).
  std::string ToString(bool letters = false) const;
};

}  // namespace pfci

#endif  // PFCI_CORE_MINING_RESULT_H_
