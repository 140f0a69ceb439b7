// Frequent-probability evaluation (Definition 3.4).
//
// PrF(X) = Pr{support(X) >= min_sup} where support(X) is Poisson-binomial
// over the existence probabilities of Tids(X). The evaluator combines the
// exact O(n * min_sup) dynamic program with Chernoff-Hoeffding short
// circuits: when the tail bound already pins the probability to 0 or 1
// within 1e-15 the DP is skipped (far below any decision threshold).
//
// The probability gather and the DP row live in a thread-local workspace
// private to the evaluator, so a warm thread evaluates PrF with zero heap
// allocation.
#ifndef PFCI_CORE_FREQUENT_PROBABILITY_H_
#define PFCI_CORE_FREQUENT_PROBABILITY_H_

#include <atomic>
#include <cstdint>
#include <optional>

#include "src/data/tidset.h"
#include "src/data/vertical_index.h"

namespace pfci {

class EvalCache;
struct MiningStats;

/// Evaluates frequent probabilities against a fixed database and min_sup.
///
/// With a non-null EvalCache (session runs), PrF(tids) first consults the
/// cache: a stored tail table answers this min_sup bit-identically to a
/// direct DP (see PoissonBinomialTailTable), and the cached mu replays
/// the Chernoff short circuits exactly, so caching never changes a
/// returned value — only the dp_runs / cache_* work counters. A DP run
/// caches its table over [1, min_sup], which answers every lower
/// threshold; a short circuit caches mu alone. The same cache tier serves
/// expected supports (ExpectedSupport).
class FrequentProbability {
 public:
  FrequentProbability(const VerticalIndex& index, std::size_t min_sup,
                      EvalCache* cache = nullptr);

  /// Exact PrF over the transactions in `tids` (modulo the 1e-15 short
  /// circuits described above).
  double PrF(const TidSet& tids) const;

  /// Expected support mu of Tids(X) = `tids`: the ascending-tid-order
  /// sum of its existence probabilities. With a cache it probes at
  /// threshold 0 and stores mu-only entries, counted in cache_hits /
  /// cache_misses; the cached mu is the same sum, so the value is
  /// bit-identical either way (and one entry serves both expected-support
  /// requests and PrF short circuits). min_sup plays no part.
  double ExpectedSupport(const TidSet& tids) const;

  /// Cheap upper bound on PrF (Lemma 4.1's Chernoff-Hoeffding bound):
  /// never smaller than the exact value. Allocation-free.
  double PrFUpperBound(const TidSet& tids) const;

  std::size_t min_sup() const { return min_sup_; }

  /// Number of exact DP executions so far (work accounting). The counter
  /// is atomic so one evaluator can be shared by all tasks of a parallel
  /// mining run. Without a cache the total is deterministic (the set of
  /// DPs executed does not depend on scheduling), only the increment
  /// order varies. With a shared EvalCache it is not: evaluations that
  /// race on the same tid-set each miss and each run the DP, whether they
  /// come from tasks of one run or from a batch's concurrently running
  /// groups. Values stay exact either way.
  std::uint64_t dp_runs() const {
    return dp_runs_.load(std::memory_order_relaxed);
  }

  /// Per-evaluator cache accounting (all zero without a cache).
  /// cache_hits: probes answered from a stored entry without running a
  /// DP; dp_reused: the subset of hits served from a stored tail table
  /// (the rest were short-circuit replays or expected supports off the
  /// cached mu); cache_misses: probes that had to read the probabilities
  /// and compute.
  /// Like dp_runs with a cache, these can vary with scheduling when
  /// evaluations race on the same first evaluation — values stay exact.
  std::uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t dp_reused() const {
    return dp_reused_.load(std::memory_order_relaxed);
  }

  /// The subset of dp_reused served from tables another evaluator stored
  /// (an earlier run of the session, or a batch's other members); repeats
  /// of this evaluator's own tables are not counted. Each cached
  /// evaluator draws its own run id from the cache (EvalCache::NewRunId).
  std::uint64_t shared_dp_reused() const {
    return shared_dp_reused_.load(std::memory_order_relaxed);
  }

  /// Adds the counters above into `stats` (shared_dp_reused into
  /// shared_dp_hits, which the serving layer keeps only on batch
  /// followers): the one fold a run makes of its evaluator, once, on the
  /// coordinating thread. Added (not assigned): a resumed run's base
  /// counters already hold the suspended sessions' counts.
  void AddCountersTo(MiningStats& stats) const;

 private:
  /// The Chernoff-Hoeffding short circuits at min_sup for a tid-set of
  /// `n` transactions with expected support `mu`: 0.0 or 1.0 when the
  /// tail bound pins PrF there, nullopt when only the DP can tell.
  std::optional<double> ShortCircuit(double mu, std::size_t n) const;

  const VerticalIndex* index_;
  std::size_t min_sup_;
  EvalCache* cache_ = nullptr;
  std::uint64_t run_id_ = 0;  ///< This evaluator's inserts into cache_.
  mutable std::atomic<std::uint64_t> dp_runs_{0};
  mutable std::atomic<std::uint64_t> cache_hits_{0};
  mutable std::atomic<std::uint64_t> cache_misses_{0};
  mutable std::atomic<std::uint64_t> dp_reused_{0};
  mutable std::atomic<std::uint64_t> shared_dp_reused_{0};
};

}  // namespace pfci

#endif  // PFCI_CORE_FREQUENT_PROBABILITY_H_
