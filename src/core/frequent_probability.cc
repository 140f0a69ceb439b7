#include "src/core/frequent_probability.h"

#include <utility>
#include <vector>

#include "src/core/eval_cache.h"
#include "src/core/mining_result.h"
#include "src/prob/poisson_binomial.h"
#include "src/prob/tail_bounds.h"
#include "src/util/check.h"

namespace pfci {

namespace {

/// Tail-bound mass below which a probability is treated as exactly 0/1.
/// This is at the double rounding-noise level of the DP itself, so the
/// short circuit never changes a threshold comparison.
constexpr double kNegligible = 1e-15;

/// Scratch for one PrF evaluation, grown to the run's high-water mark.
struct DpWorkspace {
  std::vector<double> probs;  ///< ProbsOf(Tids(X)) gather target.
  std::vector<double> dp;     ///< Truncated Poisson-binomial DP row.
};

/// The calling thread's workspace. Safe under the helping scheduler: its
/// contents are live only inside one PrF evaluation, which never
/// suspends, so another task run on this thread meanwhile (while a
/// ParallelFor caller helps) only reaches it between PrF calls.
DpWorkspace& LocalDpWorkspace() {
  thread_local DpWorkspace workspace;
  return workspace;
}

}  // namespace

FrequentProbability::FrequentProbability(const VerticalIndex& index,
                                         std::size_t min_sup,
                                         EvalCache* cache)
    : index_(&index),
      min_sup_(min_sup),
      cache_(cache),
      run_id_(cache != nullptr ? cache->NewRunId() : 0) {
  PFCI_CHECK(min_sup >= 1);
}

std::optional<double> FrequentProbability::ShortCircuit(double mu,
                                                        std::size_t n) const {
  const double s = static_cast<double>(min_sup_);
  // Upper-tail short circuit: Pr{S >= min_sup} ~ 0.
  if (BestUpperTailBound(mu, n, s) < kNegligible) return 0.0;
  // Lower-tail short circuit: Pr{S <= min_sup - 1} ~ 0 -> PrF ~ 1.
  if (ChernoffLowerTail(mu, s - 1.0) < kNegligible) return 1.0;
  return std::nullopt;
}

double FrequentProbability::PrF(const TidSet& tids) const {
  if (tids.size() < min_sup_) return 0.0;

  // Cache tier. A stored entry replays the short circuits off its mu
  // first: the tail table holds raw DP values, but an uncached run that
  // short-circuits never reaches the DP, and bit-identity means matching
  // that path too. The cached mu is the ascending-tid-order sum, the same
  // value PoissonBinomialMean produces from the gathered probabilities.
  EvalCache::Lookup lookup;
  if (cache_ != nullptr) {
    lookup = cache_->Probe(tids, min_sup_);
    if (lookup.found) {
      if (const std::optional<double> settled =
              ShortCircuit(lookup.mu, tids.size())) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        return *settled;
      }
      if (lookup.has_table) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        dp_reused_.fetch_add(1, std::memory_order_relaxed);
        if (lookup.table_run != run_id_) {
          shared_dp_reused_.fetch_add(1, std::memory_order_relaxed);
        }
        return lookup.tail;
      }
    }
    // Miss, or a stored table truncated below this min_sup.
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  DpWorkspace& workspace = LocalDpWorkspace();
  index_->GatherProbs(tids, &workspace.probs);
  const std::vector<double>& probs = workspace.probs;
  const std::size_t n = probs.size();
  const double mu = lookup.found ? lookup.mu : PoissonBinomialMean(probs);
  if (!lookup.found) {
    if (const std::optional<double> settled = ShortCircuit(mu, n)) {
      // Mu alone: later probes replay the short circuit off it, and a
      // lower threshold where it does not fire runs its own DP.
      if (cache_ != nullptr) cache_->Insert(tids, mu, 0, {1.0}, run_id_);
      return *settled;
    }
  }

  dp_runs_.fetch_add(1, std::memory_order_relaxed);
  if (cache_ == nullptr) {
    return PoissonBinomialTailAtLeast(probs.data(), n, min_sup_,
                                      &workspace.dp);
  }
  // table[t] is bit-identical to a direct DP at t for every t <= min_sup,
  // so this entry answers this and every lower threshold from now on.
  std::vector<double> table;
  PoissonBinomialTailTable(probs.data(), n, min_sup_, &workspace.dp, &table);
  const double result = table[min_sup_];
  cache_->Insert(tids, mu, min_sup_, std::move(table), run_id_);
  return result;
}

double FrequentProbability::ExpectedSupport(const TidSet& tids) const {
  if (cache_ == nullptr) return index_->SumProbsOf(tids);
  const EvalCache::Lookup lookup = cache_->Probe(tids, 0);
  if (lookup.found) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return lookup.mu;
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  const double mu = index_->SumProbsOf(tids);
  cache_->Insert(tids, mu, 0, {1.0}, run_id_);
  return mu;
}

double FrequentProbability::PrFUpperBound(const TidSet& tids) const {
  if (tids.size() < min_sup_) return 0.0;
  return BestUpperTailBound(index_->SumProbsOf(tids), tids.size(),
                            static_cast<double>(min_sup_));
}

void FrequentProbability::AddCountersTo(MiningStats& stats) const {
  stats.dp_runs += dp_runs();
  stats.cache_hits += cache_hits();
  stats.cache_misses += cache_misses();
  stats.dp_reused += dp_reused();
  stats.shared_dp_hits += shared_dp_reused();
}

}  // namespace pfci
