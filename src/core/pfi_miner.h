// Approximate probabilistic frequent itemset (PFI) mining — the [3]-style
// ablation of the [22] baseline.
//
// The exact PFI baseline (PrF(X) > pft, Definition 3.5) is
// Algorithm::kPfi of Mine(). No Algorithm reaches the approximation: it
// is an experiment building block for tests and benches, in internal::
// and outside the umbrella header.
#ifndef PFCI_CORE_PFI_MINER_H_
#define PFCI_CORE_PFI_MINER_H_

#include <vector>

#include "src/core/search/pfi_enumeration.h"  // PfiEntry, the enumeration.
#include "src/data/uncertain_database.h"
#include "src/prob/tail_approximations.h"

namespace pfci {
namespace internal {

/// Approximate PFI mining in the spirit of [3]: the exact frequent-
/// probability DP is replaced by a distributional approximation of the
/// Poisson-binomial tail (normal, refined normal, or Poisson). Much
/// faster at large min_sup, at the price of possible misclassification of
/// borderline itemsets. kExactDp reproduces Algorithm::kPfi with Chernoff
/// pruning on. Takes raw parameters, not a MiningRequest: it CHECKs
/// min_sup >= 1 and runs standalone and unlimited.
std::vector<PfiEntry> MinePfiApproximate(const UncertainDatabase& db,
                                         std::size_t min_sup, double pft,
                                         FrequencyMode mode);

}  // namespace internal
}  // namespace pfci

#endif  // PFCI_CORE_PFI_MINER_H_
