// Probabilistic frequent itemset enumeration — the kernel's flat
// (non-closed) search primitive.
//
// Enumerates all itemsets with PrF(X) > pft (Definition 3.5) by a
// sequential depth-first walk with CandidateOracle qualification at every
// node. PrF is anti-monotone, so the enumeration is complete. This is the
// engine behind the PFI baseline miner and the candidate stage of the
// Naive checker (Fig. 5); it lives in the kernel so frontier policies can
// call it without depending on any miner entry point.
#ifndef PFCI_CORE_SEARCH_PFI_ENUMERATION_H_
#define PFCI_CORE_SEARCH_PFI_ENUMERATION_H_

#include <vector>

#include "src/core/mining_result.h"
#include "src/core/search/candidate_oracle.h"
#include "src/data/tidset.h"
#include "src/data/vertical_index.h"
#include "src/util/runtime.h"

namespace pfci {

/// One probabilistic frequent itemset with its frequent probability and
/// tid-list (kept so downstream checkers need not recompute it).
struct PfiEntry {
  Itemset items;
  double pr_f = 0.0;
  TidSet tids;

  friend bool operator<(const PfiEntry& a, const PfiEntry& b) {
    return a.items < b.items;
  }
};

/// Enumerates all itemsets of `index` with PrF(X) > pft, sorted
/// canonically, qualifying every node through `oracle` (which fixes the
/// support threshold, the frequency evaluation and the Lemma 4.1 stage).
/// The caller owns the index and evaluators: it charges the index to the
/// memory budget, checkpoints before calling, and folds the evaluator's
/// work counters. `stats` (optional) accumulates pruning counters. The
/// DFS polls `rt` at node expansion and winds down with a verified prefix
/// when a limit trips.
std::vector<PfiEntry> EnumeratePfis(const VerticalIndex& index,
                                    const CandidateOracle& oracle, double pft,
                                    MiningStats* stats, RunController& rt);

}  // namespace pfci

#endif  // PFCI_CORE_SEARCH_PFI_ENUMERATION_H_
