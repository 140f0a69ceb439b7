// Expected-support frequent itemset mining (U-Apriori model of [9]).
//
// The related-work alternative to the probabilistic frequent model: an
// itemset is "expected-support frequent" when the sum of the existence
// probabilities of the transactions containing it reaches a threshold.
// Included so the library covers both uncertainty interpretations the
// paper's Sec. II.B surveys.
#ifndef PFCI_CORE_EXPECTED_SUPPORT_MINER_H_
#define PFCI_CORE_EXPECTED_SUPPORT_MINER_H_

#include <vector>

#include "src/core/execution.h"
#include "src/core/mining_result.h"
#include "src/data/itemset.h"
#include "src/data/tidset.h"
#include "src/data/uncertain_database.h"
#include "src/util/runtime.h"

namespace pfci {

/// An itemset with its expected support.
struct ExpectedSupportEntry {
  Itemset items;
  double expected_support = 0.0;

  friend bool operator<(const ExpectedSupportEntry& a,
                        const ExpectedSupportEntry& b) {
    return a.items < b.items;
  }
};

/// Mines all itemsets with expected support >= min_esup (> 0). Expected
/// support is anti-monotone, so a DFS with threshold pruning is complete.
/// `stats` (optional) accumulates nodes_visited, pruned_by_frequency
/// (esup below threshold) and intersections for telemetry.
/// `tidset_mode` picks the tid-set representation. `exec` (optional)
/// carries the run's controller, which makes the DFS fail-soft: polled at
/// node expansion, a stop or exhausted node quota leaves a verified
/// prefix of the answer.
/// Under a MiningSession it also carries the shared index and evaluation
/// cache, whose mu entries answer expected supports exactly (DESIGN.md
/// §11). Null, or a context without a controller, mines standalone and
/// unlimited.
std::vector<ExpectedSupportEntry> MineExpectedSupport(
    const UncertainDatabase& db, double min_esup,
    MiningStats* stats = nullptr,
    TidSetMode tidset_mode = TidSetMode::kAdaptive,
    const ExecutionContext* exec = nullptr);

namespace internal {
/// The same answer via a UF-growth-style weighted FP-growth [15]: under
/// tuple-level uncertainty the expected support is a weighted support
/// (each transaction weighs its existence probability), so FP-growth
/// generalizes by carrying real-valued counts. Cross-validates the DFS
/// miner and serves as the pattern-growth baseline of the expected-
/// support model. Reached through Mine() with
/// Algorithm::kExpectedSupportFpGrowth.
std::vector<ExpectedSupportEntry> MineExpectedSupportFpGrowth(
    const UncertainDatabase& db, double min_esup);
}  // namespace internal

}  // namespace pfci

#endif  // PFCI_CORE_EXPECTED_SUPPORT_MINER_H_
