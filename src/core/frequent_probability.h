// Frequent-probability evaluation (Definition 3.4).
//
// PrF(X) = Pr{support(X) >= min_sup} where support(X) is Poisson-binomial
// over the existence probabilities of Tids(X). The evaluator combines the
// exact O(n * min_sup) dynamic program with Chernoff-Hoeffding short
// circuits: when the tail bound already pins the probability to 0 or 1
// within 1e-15 the DP is skipped (far below any decision threshold).
//
// The probability gather and the DP row live in the calling thread's
// DpWorkspace, so a warm thread evaluates PrF with zero heap allocation.
#ifndef PFCI_CORE_FREQUENT_PROBABILITY_H_
#define PFCI_CORE_FREQUENT_PROBABILITY_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/data/tidset.h"
#include "src/data/vertical_index.h"

namespace pfci {

class EvalCache;

/// Scratch for one PrF evaluation, grown to the run's high-water mark.
struct DpWorkspace {
  std::vector<double> probs;  ///< ProbsOf(Tids(X)) gather target.
  std::vector<double> dp;     ///< Truncated Poisson-binomial DP row.
};

/// The calling thread's workspace (thread_local). Safe under the helping
/// scheduler: its contents are live only inside one PrF evaluation, which
/// never suspends, so another task run on this thread meanwhile (while a
/// ParallelFor caller helps) only reaches it between PrF calls.
DpWorkspace& LocalDpWorkspace();

/// Evaluates frequent probabilities against a fixed database and min_sup.
///
/// With a non-null EvalCache (session runs), PrF(tids) first consults the
/// cache: a stored tail table answers this min_sup bit-identically to a
/// direct DP (see PoissonBinomialTailTable), and the cached mu replays
/// the Chernoff short circuits exactly, so caching never changes a
/// returned value — only the dp_runs / cache_* work counters.
class FrequentProbability {
 public:
  /// `table_floor` (only meaningful with a cache): freshly computed tail
  /// tables are extended to at least this threshold before caching, so a
  /// sweep's lowest-threshold run prefills answers for the higher ones.
  FrequentProbability(const VerticalIndex& index, std::size_t min_sup,
                      EvalCache* cache = nullptr,
                      std::size_t table_floor = 0);

  /// Exact PrF over the transactions in `tids` (modulo the 1e-15 short
  /// circuits described above).
  double PrF(const TidSet& tids) const;

  /// Cheap upper bound on PrF (Lemma 4.1's Chernoff-Hoeffding bound):
  /// never smaller than the exact value. Allocation-free.
  double PrFUpperBound(const TidSet& tids) const;

  std::size_t min_sup() const { return min_sup_; }

  /// Number of exact DP executions so far (work accounting). The counter
  /// is atomic so one evaluator can be shared by all tasks of a parallel
  /// mining run; the total is deterministic (the set of DPs executed does
  /// not depend on scheduling), only the increment order varies.
  std::uint64_t dp_runs() const {
    return dp_runs_.load(std::memory_order_relaxed);
  }

  /// Per-evaluator cache accounting (all zero without a cache).
  /// cache_hits: probes answered from a stored entry without running a
  /// DP; dp_reused: the subset of hits served from a stored tail table
  /// (the rest were short-circuit replays off the cached mu);
  /// cache_misses: probes that had to gather probabilities and compute.
  /// Unlike dp_runs' total, these can vary with scheduling when worker
  /// threads race on the same first evaluation — values stay exact.
  std::uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t dp_reused() const {
    return dp_reused_.load(std::memory_order_relaxed);
  }

 private:
  /// The Chernoff-Hoeffding short circuits at min_sup for a tid-set of
  /// `n` transactions with expected support `mu`: 0.0 or 1.0 when the
  /// tail bound pins PrF there, nullopt when only the DP can tell.
  std::optional<double> ShortCircuit(double mu, std::size_t n) const;

  const VerticalIndex* index_;
  std::size_t min_sup_;
  EvalCache* cache_ = nullptr;
  std::size_t table_floor_ = 0;
  mutable std::atomic<std::uint64_t> dp_runs_{0};
  mutable std::atomic<std::uint64_t> cache_hits_{0};
  mutable std::atomic<std::uint64_t> cache_misses_{0};
  mutable std::atomic<std::uint64_t> dp_reused_{0};
};

}  // namespace pfci

#endif  // PFCI_CORE_FREQUENT_PROBABILITY_H_
