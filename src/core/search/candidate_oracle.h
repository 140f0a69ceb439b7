// The qualification oracle of the unified search kernel (DESIGN.md §12).
//
// Every miner asks the same question about a candidate itemset — "can X
// still be probabilistically frequent above my threshold?" — and answers
// it with the same pipeline: support-count floor, session warm-start
// proofs, the Lemma 4.1 Chernoff-Hoeffding bound, and finally the exact
// (or distributional-approximation) frequent probability. The
// CandidateOracle owns that pipeline once, including its pruning-counter
// semantics, so the frontier policies stay pure enumeration strategies.
#ifndef PFCI_CORE_SEARCH_CANDIDATE_ORACLE_H_
#define PFCI_CORE_SEARCH_CANDIDATE_ORACLE_H_

#include "src/core/eval_cache.h"
#include "src/core/frequent_probability.h"
#include "src/core/mining_result.h"
#include "src/data/vertical_index.h"
#include "src/prob/tail_approximations.h"

namespace pfci {

/// One qualification query. The defaults reproduce the common
/// MPFCI/BFS/PFI semantics; TopK flips the two flags.
struct QualifyRequest {
  /// The pruning threshold: the oracle rejects when it can prove
  /// PrF(X) <= threshold. Constant (params.pfct / pft) for the
  /// threshold-based miners; the rising k-th-best floor for top-k.
  double threshold = 0.0;

  /// Non-null for singleton candidates in session runs: warm-start
  /// infrequency proofs recorded by earlier runs reject the item before
  /// any bound is computed, and rejections found the hard way are
  /// recorded for later runs. Null disables both directions.
  const Item* warm_item = nullptr;

  /// Whether a support-count-floor rejection bumps pruned_by_frequency.
  /// The threshold-based miners count it (the floor is their Definition
  /// 3.4 frequency test); the top-k candidate filter does not.
  bool count_floor = true;

  /// When false the oracle stops after the bound stages and never
  /// computes PrF: Admitted() on the result then only means "not
  /// provably below threshold". Used by the top-k candidate filter,
  /// whose dynamic threshold makes a static exact check unsound.
  bool exact_check = true;
};

/// Owns the candidate qualification pipeline: count floor -> warm-start
/// proof -> Chernoff-Hoeffding bound -> exact/approximate PrF, with the
/// per-stage pruning counters. Stateless per query and safe to share
/// across threads (all mutation goes to caller-owned `stats`, and the
/// warm store is internally synchronized).
class CandidateOracle {
 public:
  /// `use_chernoff` gates the Lemma 4.1 stage (params.pruning.chernoff,
  /// or the PFI miner's use_chernoff flag). `mode` selects the PrF
  /// evaluation: kExactDp is the exact Poisson-binomial DP; the others
  /// are the distributional tail approximations of the approximate PFI
  /// miner. `warm` (nullable) is consulted/updated only for queries that
  /// pass a warm_item; callers gate it (e.g. on mode == kExactDp, the
  /// only mode the proofs are sound against).
  CandidateOracle(const VerticalIndex& index, const FrequentProbability& freq,
                  bool use_chernoff, FrequencyMode mode, ItemWarmStart* warm)
      : index_(&index),
        freq_(&freq),
        use_chernoff_(use_chernoff),
        mode_(mode),
        warm_(warm) {}

  /// Runs the pipeline on Tids(X) = `tids`. Returns PrF(X) when the
  /// exact stage ran (whatever its comparison outcome — callers test
  /// `> threshold`), and 0.0 when a bound stage rejected. With
  /// exact_check = false, returns kAdmittedByBounds when no bound stage
  /// rejected. `stats` may be null (counter-free callers).
  double Qualify(const TidSet& tids, const QualifyRequest& req,
                 MiningStats* stats) const;

  /// Sentinel returned by bound-only queries that were not rejected;
  /// compares greater than any real threshold.
  static constexpr double kAdmittedByBounds = 2.0;

 private:
  const VerticalIndex* index_;
  const FrequentProbability* freq_;
  bool use_chernoff_;
  FrequencyMode mode_;
  ItemWarmStart* warm_;
};

}  // namespace pfci

#endif  // PFCI_CORE_SEARCH_CANDIDATE_ORACLE_H_
