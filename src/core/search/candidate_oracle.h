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
  /// computes PrF: Admitted() on the result then only means "not
  /// provably below threshold". Used by the top-k candidate filter,
  /// whose dynamic threshold makes a static exact check unsound, and by
  /// the approximate PFI miner, which replaces the exact stage.
  bool exact_check = true;
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
  const FrequentProbability* freq_;
  bool use_chernoff_;
};

}  // namespace pfci

#endif  // PFCI_CORE_SEARCH_CANDIDATE_ORACLE_H_
