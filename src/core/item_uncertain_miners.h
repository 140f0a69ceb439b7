// Frequency-style mining under item-level uncertainty (the [9]/[12]
// related-work model; see item_uncertain_database.h for scope notes).
//
// Both measures reduce to the tuple-level machinery because support(X)
// is Poisson-binomial over the per-transaction containment probabilities,
// so both run the kernel's one frequentness enumeration
// (src/core/search/pfi_enumeration.h) over ItemColumns covers:
//  * expected support: Σ p >= min_esup, the U-Apriori measure
//    (anti-monotone: Π p only shrinks when X grows);
//  * probabilistic frequent itemsets: the count floor, the
//    Chernoff-Hoeffding bound and the exact DP of [22], with
//    CandidateOracle's pruning counters.
#ifndef PFCI_CORE_ITEM_UNCERTAIN_MINERS_H_
#define PFCI_CORE_ITEM_UNCERTAIN_MINERS_H_

#include <cstddef>

#include "src/core/mining_result.h"
#include "src/core/search/pfi_enumeration.h"
#include "src/data/item_uncertain_database.h"
#include "src/util/runtime.h"

namespace pfci {

namespace internal {
/// Emits every itemset with expected support >= min_esup (> 0) under
/// item-level uncertainty (U-Apriori's measure [9]), with that expected
/// support. Node site "item-esup/node". Reached through the item-level
/// Mine() overload with Algorithm::kItemExpectedSupport.
void MineItemExpectedSupport(const ItemUncertainDatabase& db,
                             double min_esup, MiningStats* stats,
                             RunController& rt,
                             const FrequentEmit<ContainmentList>& emit);

/// Emits every itemset with Pr{support >= min_sup} > pft under
/// item-level uncertainty (the probabilistic frequent model applied to
/// [9]'s data), with that probability. `use_chernoff` gates the Lemma
/// 4.1 stage (params.pruning.chernoff). Node site "item-pfi/node".
/// Reached through the item-level Mine() overload with
/// Algorithm::kItemPfi.
void MineItemPfi(const ItemUncertainDatabase& db, std::size_t min_sup,
                 double pft, bool use_chernoff, MiningStats* stats,
                 RunController& rt,
                 const FrequentEmit<ContainmentList>& emit);
}  // namespace internal

}  // namespace pfci

#endif  // PFCI_CORE_ITEM_UNCERTAIN_MINERS_H_
