// The closedness side of the unified search kernel (DESIGN.md §12).
//
// Lemmas 4.2/4.3 prune by tid-set containment relations; Lemma 4.4 plus
// the exact/sampled evaluators certify the surviving nodes. Both halves
// act on Tids(X), so they live together: the ClosureOperator answers
// "is X dominated by a superset?" and "what is PrFC(X), and does it beat
// the threshold?" for every frontier policy.
#ifndef PFCI_CORE_SEARCH_CLOSURE_OPERATOR_H_
#define PFCI_CORE_SEARCH_CLOSURE_OPERATOR_H_

#include "src/core/fcp_engine.h"
#include "src/core/mining_result.h"
#include "src/data/vertical_index.h"
#include "src/util/random.h"
#include "src/util/runtime.h"

namespace pfci {

/// Converts a finished certification into the reported entry (the one
/// spelling of the bounds-field fallbacks shared by every miner).
PfciEntry MakePfciEntry(const Itemset& x, const FcpComputation& comp);

/// Superset pruning plus frequent-closed-probability certification over
/// one index/engine pair. Safe to share across threads (mutation goes to
/// caller-owned stats/rng/unit).
class ClosureOperator {
 public:
  ClosureOperator(const VerticalIndex& index, const FcpEngine& engine)
      : index_(&index), engine_(&engine) {}

  /// Lemma 4.2: some item e < last(X), e not in X, has
  /// count(X+e) == count(X) -> X and its whole prefix subtree have
  /// frequent closed probability 0. Charges the subset tests to
  /// stats.intersections; the caller bumps pruned_by_superset on a hit
  /// (it owns the per-node decision).
  bool SupersetPruned(const Itemset& x, const TidSet& tids,
                      MiningStats& stats) const;

  /// Certifies X against `threshold` via the engine's
  /// Bounding-Pruning-Checking pipeline (same-count zero, Lemma 4.4
  /// bounds, exact inclusion-exclusion or ApproxFCP). Pass params.pfct
  /// for the threshold-based miners; top-k passes its rising floor.
  FcpComputation CertifyAt(double threshold, const Itemset& x,
                           const TidSet& tids, double pr_f, Rng& rng,
                           MiningStats* stats, WorkUnitBudget* unit) const {
    return engine_->EvaluateAt(threshold, x, tids, pr_f, rng, stats, unit);
  }

 private:
  const VerticalIndex* index_;
  const FcpEngine* engine_;
};

}  // namespace pfci

#endif  // PFCI_CORE_SEARCH_CLOSURE_OPERATOR_H_
