// The qualification oracle of the unified search kernel (DESIGN.md §12).
//
// Every miner asks the same question about a candidate itemset — "can X
// still be probabilistically frequent above my threshold?" — and answers
// it with the same pipeline: support-count floor, the Lemma 4.1
// Chernoff-Hoeffding bound, and finally the exact frequent probability.
// The CandidateOracle owns that pipeline once, including its
// pruning-counter semantics, so the frontier policies stay pure
// enumeration strategies.
#ifndef PFCI_CORE_SEARCH_CANDIDATE_ORACLE_H_
#define PFCI_CORE_SEARCH_CANDIDATE_ORACLE_H_

#include <cstddef>
#include <limits>

#include "src/core/frequent_probability.h"
#include "src/core/mining_result.h"
#include "src/data/tidset.h"

namespace pfci {

/// One qualification query. The defaults reproduce the common
/// MPFCI/BFS/PFI semantics; TopK flips the two flags.
struct QualifyRequest {
  /// The pruning threshold: the oracle rejects when it can prove
  /// PrF(X) <= threshold. Constant (params.pfct / pft) for the
  /// threshold-based miners; the rising k-th-best floor for top-k.
  double threshold = 0.0;

  /// Whether a support-count-floor rejection bumps pruned_by_frequency.
  /// The threshold-based miners count it (the floor is their Definition
  /// 3.4 frequency test); the top-k candidate filter does not.
  bool count_floor = true;

  /// When false the oracle stops after the bound stages and never
  /// computes PrF: `admitted` on the result then only means "not
  /// provably below threshold". Used by the top-k candidate filter,
  /// whose dynamic threshold makes a static exact check unsound, and by
  /// the approximate PFI miner, which replaces the exact stage.
  bool exact_check = true;
};

/// How far below the threshold a rejection must sit before it speaks for
/// the rejected itemset's supersets. PrF is anti-monotone, but the
/// computed values are so only up to DP rounding (at most n * 2^-53) and
/// the 1e-15 short circuits, both far inside this margin, so a rejection
/// at or below threshold - kSiblingMargin also rejects every superset.
inline constexpr double kSiblingMargin = 1e-9;

/// Whether a rejection by `bound` (an upper bound on PrF(X), or PrF(X)
/// itself) rejects every superset of X at `threshold` or above.
inline bool ClearsSiblingMargin(double bound, double threshold) {
  return bound <= threshold - kSiblingMargin;
}

/// What one qualification decided and learned about X.
struct Qualification {
  /// Not rejected: PrF(X) > threshold, or (exact_check = false) no bound
  /// stage could prove PrF(X) <= threshold.
  bool admitted = false;
  /// Every superset of X is rejected too, at this threshold or any higher
  /// one: the count floor rejected X, or a bound or PrF(X) itself sits
  /// at least kSiblingMargin below the threshold.
  bool rejects_supersets = false;
  /// PrF(X) when the exact stage ran, else -1.
  double pr_f = -1.0;
  /// Lemma 4.1's upper bound on PrF(X) when that stage ran, else
  /// +infinity.
  double upper = std::numeric_limits<double>::infinity();
};

/// Owns the candidate qualification pipeline: count floor ->
/// Chernoff-Hoeffding bound -> exact PrF, with the per-stage pruning
/// counters. Stateless per query and safe to share across threads (all
/// mutation goes to caller-owned `stats`).
class CandidateOracle {
 public:
  /// `use_chernoff` gates the Lemma 4.1 stage (params.pruning.chernoff,
  /// or the PFI miner's use_chernoff flag).
  CandidateOracle(const FrequentProbability& freq, bool use_chernoff)
      : freq_(&freq), use_chernoff_(use_chernoff) {}

  /// Runs the pipeline on Tids(X) = `tids`. `stats` may be null
  /// (counter-free callers).
  Qualification Qualify(const TidSet& tids, const QualifyRequest& req,
                        MiningStats* stats) const;

  /// The count-floor stage alone, for callers that count |Tids(X)| before
  /// building it: whether `count` reaches min_sup. A rejection bumps
  /// pruned_by_frequency under req.count_floor, exactly as in Qualify.
  bool PassesCountFloor(std::size_t count, const QualifyRequest& req,
                        MiningStats* stats) const;

  /// Replays the bound and exact stages of `q`, which admitted X with
  /// exact_check on, at a raised `threshold` from its stored bound and
  /// PrF, with Qualify's counters: the decision Qualify would make at
  /// `threshold`, without a second DP. For the top-k floor, which rises
  /// between qualifying a child and descending into it.
  bool Readmits(const Qualification& q, double threshold,
                MiningStats* stats) const;

 private:
  const FrequentProbability* freq_;
  bool use_chernoff_;
};

}  // namespace pfci

#endif  // PFCI_CORE_SEARCH_CANDIDATE_ORACLE_H_
