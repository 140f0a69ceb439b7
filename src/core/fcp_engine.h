// Frequent-closed-probability engine: the Bounding-Pruning-Checking
// pipeline of Fig. 1 applied to a single itemset.
//
// Given X (and its tid-list), the engine builds the extension events and
// then spends as little work as possible to decide whether PrFC(X) > pfct:
//   1. a same-count extension makes PrFC exactly 0 (Lemmas 4.2/4.3);
//   2. Lemma 4.4 bounds may settle the comparison outright;
//   3. otherwise inclusion-exclusion (few events) or ApproxFCP (many).
#ifndef PFCI_CORE_FCP_ENGINE_H_
#define PFCI_CORE_FCP_ENGINE_H_

#include <cstdint>

#include "src/core/execution.h"
#include "src/core/extension_events.h"
#include "src/core/fcp_bounds.h"
#include "src/core/frequent_probability.h"
#include "src/core/mining_params.h"
#include "src/core/mining_result.h"
#include "src/data/vertical_index.h"
#include "src/util/random.h"
#include "src/util/runtime.h"

namespace pfci {

/// Everything the engine learned about one itemset.
struct FcpComputation {
  double pr_f = 0.0;
  double fcp = 0.0;
  FcpBounds bounds;
  bool bounds_computed = false;
  FcpMethod method = FcpMethod::kUndecided;
  bool is_pfci = false;
  std::uint64_t samples = 0;

  /// True when the evaluation could not be carried to a verdict: the
  /// sample budget refused the required draws, or a global stop aborted
  /// the sampler mid-estimate. An undecided itemset must not be emitted,
  /// and (to keep the per-unit RNG stream aligned with an unbudgeted run)
  /// the calling work unit must stop evaluating further itemsets.
  bool undecided = false;
};

/// Stateless evaluator bound to a database and mining parameters. Safe to
/// share across threads: Evaluate only mutates caller-owned state (`rng`,
/// `stats`).
class FcpEngine {
 public:
  /// `index` and `freq` must outlive the engine. `exec.pool`, when set,
  /// parallelizes the ApproxFCP sample batches; `exec.progress` is unused
  /// here.
  FcpEngine(const VerticalIndex& index, const FrequentProbability& freq,
            const MiningParams& params,
            const ExecutionContext& exec = ExecutionContext{});

  /// Decides whether X (with Tids(X) = `tids` and PrF(X) = `pr_f`)
  /// qualifies, with early exits against params.pfct. `stats` may be null.
  ///
  /// `unit`, when given, is the caller's logical sample ledger: the full
  /// Karp-Luby sample requirement is claimed from it before the sampler
  /// runs, so an estimate is complete or not attempted (result.undecided).
  /// Under deadline pressure (exec.runtime->ShouldDegradeFcp()) exact
  /// inclusion-exclusion evaluations degrade to the ApproxFCP sampler,
  /// counted in stats->degraded_fcp_evals.
  FcpComputation Evaluate(const Itemset& x, const TidSet& tids, double pr_f,
                          Rng& rng, MiningStats* stats,
                          WorkUnitBudget* unit = nullptr) const;

  /// As Evaluate, but with the decision threshold supplied per call
  /// instead of read from params.pfct. This is what a rising top-k floor
  /// needs: the same pipeline, early-exiting against the k-th best FCP in
  /// hand rather than the request's static threshold.
  FcpComputation EvaluateAt(double threshold, const Itemset& x,
                            const TidSet& tids, double pr_f, Rng& rng,
                            MiningStats* stats,
                            WorkUnitBudget* unit = nullptr) const;

  /// Computes PrFC(X) to full available precision regardless of pfct
  /// (bounds are still used to report [lower, upper]).
  FcpComputation ComputeFcp(const Itemset& x, Rng& rng) const;

 private:
  FcpComputation EvaluateInternal(const Itemset& x, const TidSet& tids,
                                  double pr_f, double pfct, Rng& rng,
                                  MiningStats* stats,
                                  WorkUnitBudget* unit) const;

  const VerticalIndex* index_;
  const FrequentProbability* freq_;
  MiningParams params_;
  ExecutionContext exec_;
};

}  // namespace pfci

#endif  // PFCI_CORE_FCP_ENGINE_H_
