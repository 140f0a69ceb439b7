// ApproxFCP: the paper's FPRAS for the frequent closed probability
// (Sec. IV.B.4, Fig. 2).
//
// The frequent non-closed probability Pr(∪ C_i) is estimated by the
// Karp-Luby coverage scheme: an event C_i is drawn with probability
// Pr(C_i)/Z, a possible world is drawn from the conditional distribution
// given C_i (transactions of Tids(X) \ Tids(X+e_i) forced absent, the
// Tids(X+e_i) indicators drawn conditioned on their sum reaching min_sup),
// and the sample counts iff no earlier event also covers the world. With
// N = ceil(4 k ln(2/δ) / ε²) samples the estimate is within relative error
// ε of Pr(∪ C_i) with probability 1 - δ.
#ifndef PFCI_CORE_FCP_SAMPLER_H_
#define PFCI_CORE_FCP_SAMPLER_H_

#include <cstdint>

#include "src/core/extension_events.h"
#include "src/util/random.h"
#include "src/util/runtime.h"

namespace pfci {

class ThreadPool;

/// Result of one ApproxFCP run.
struct ApproxFcpResult {
  double fcp = 0.0;             ///< Estimated PrFC(X), clamped to [0, 1].
  double fnc = 0.0;             ///< Estimated Pr(∪ C_i).
  std::uint64_t samples = 0;    ///< Monte-Carlo samples drawn.
  std::uint64_t successes = 0;  ///< Canonical hits.

  /// True when a global stop (cancel/deadline/memory) interrupted the
  /// sample batches: the estimate misses samples and carries no FPRAS
  /// guarantee — callers must treat the evaluation as undecided and must
  /// not emit it.
  bool aborted = false;
};

/// Runs ApproxFCP. `pr_f` is the exact frequent probability of X;
/// `epsilon`/`delta` control the sample count as in the paper.
///
/// The Monte-Carlo loop runs as independently seeded sample batches whose
/// partial counts reduce in a fixed order: batch b's Rng derives from one
/// draw of `rng` and the batch index, so the estimate is a pure function
/// of the rng state — identical whether batches run sequentially
/// (`pool == nullptr`) or on any number of threads. Exactly one value is
/// consumed from `rng` per call (when events is non-empty).
///
/// `runtime` (null: a local unlimited controller) is polled at
/// sample-batch boundaries: a global stop abandons the remaining batches
/// and returns with `aborted` set (fail-soft checkpoints, DESIGN.md §10).
/// Logical sample budgets are NOT enforced here — callers pre-claim the
/// full required sample count from their WorkUnitBudget before calling
/// (see FcpEngine), so an estimate is either complete or skipped whole.
ApproxFcpResult ApproxFcp(double pr_f, const ExtensionEventSet& events,
                          double epsilon, double delta, Rng& rng,
                          ThreadPool* pool = nullptr,
                          RunController* runtime = nullptr);

}  // namespace pfci

#endif  // PFCI_CORE_FCP_SAMPLER_H_
