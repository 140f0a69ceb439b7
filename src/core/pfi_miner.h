// Probabilistic frequent itemset (PFI) mining — the baseline of [22].
//
// Returns all itemsets with PrF(X) > pft (Definition 3.5). PrF is
// anti-monotone, so a depth-first enumeration with Chernoff-Hoeffding and
// exact-DP pruning is complete; this plays the role of the TODIS/DP
// algorithms of [22] as the first stage of the Naive baseline (Fig. 5)
// and as the "PFI" series of the compression experiment (Fig. 10).
#ifndef PFCI_CORE_PFI_MINER_H_
#define PFCI_CORE_PFI_MINER_H_

#include <vector>

#include "src/core/execution.h"
#include "src/core/mining_result.h"
#include "src/core/search/pfi_enumeration.h"  // PfiEntry, the enumeration.
#include "src/data/tidset.h"
#include "src/data/uncertain_database.h"
#include "src/prob/tail_approximations.h"
#include "src/util/runtime.h"

namespace pfci {

/// Mines all itemsets with PrF(X) > pft at support threshold min_sup.
/// `stats` (optional) accumulates pruning counters; `tidset_mode` selects
/// the tid-set representation (never affects results). `exec` (optional)
/// carries the run's controller, which makes the enumeration fail-soft:
/// the DFS polls it at node expansion and winds down with a verified
/// prefix of the answer when a limit trips (the caller reads the outcome
/// off the controller). Under a MiningSession it also carries the shared
/// index and evaluation cache (DESIGN.md §11). Null, or a context
/// without a controller, mines standalone and unlimited.
std::vector<PfiEntry> MinePfi(const UncertainDatabase& db,
                              std::size_t min_sup, double pft,
                              bool use_chernoff = true,
                              MiningStats* stats = nullptr,
                              TidSetMode tidset_mode = TidSetMode::kAdaptive,
                              const ExecutionContext* exec = nullptr);

/// Approximate PFI mining in the spirit of [3]: the exact frequent-
/// probability DP is replaced by a distributional approximation of the
/// Poisson-binomial tail (normal, refined normal, or Poisson). Much
/// faster at large min_sup, at the price of possible misclassification of
/// borderline itemsets. kExactDp reproduces MinePfi.
std::vector<PfiEntry> MinePfiApproximate(const UncertainDatabase& db,
                                         std::size_t min_sup, double pft,
                                         FrequencyMode mode);

}  // namespace pfci

#endif  // PFCI_CORE_PFI_MINER_H_
