// Expected-support frequent itemset mining (U-Apriori model of [9]).
//
// The related-work alternative to the probabilistic frequent model: an
// itemset is "expected-support frequent" when the sum of the existence
// probabilities of the transactions containing it reaches a threshold.
// Included so the library covers both uncertainty interpretations the
// paper's Sec. II.B surveys. Mine() serves it twice: Algorithm::
// kExpectedSupport runs the kernel's frequentness enumeration under
// ExpectedSupportAtLeast (src/core/search/pfi_enumeration.h), and
// Algorithm::kExpectedSupportFpGrowth runs the pattern-growth baseline
// declared here.
#ifndef PFCI_CORE_EXPECTED_SUPPORT_MINER_H_
#define PFCI_CORE_EXPECTED_SUPPORT_MINER_H_

#include <vector>

#include "src/core/mining_result.h"
#include "src/data/uncertain_database.h"
#include "src/util/runtime.h"

namespace pfci {

namespace internal {
/// Every itemset with expected support >= min_esup (> 0), as a
/// FrequentnessEntry carrying that expected support, in unspecified
/// order. UF-growth [15]: the FP-growth of src/exact/fp_tree.h with each
/// transaction weighing its existence probability. Cross-validates the
/// enumeration and serves as the pattern-growth baseline of the
/// expected-support model. Runs under `rt` like the enumeration: it
/// charges its weighted rows to the memory budget, and its per-node hook
/// (failpoint "esup-fp/node") checkpoints, takes one node of the run's
/// quota and counts `stats->nodes_visited` (stats may be null); a stop
/// leaves a verified prefix.
std::vector<PfciEntry> MineExpectedSupportFpGrowth(
    const UncertainDatabase& db, double min_esup, MiningStats* stats,
    RunController& rt);
}  // namespace internal

}  // namespace pfci

#endif  // PFCI_CORE_EXPECTED_SUPPORT_MINER_H_
