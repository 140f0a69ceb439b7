#include "src/core/frequent_probability.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/eval_cache.h"
#include "src/prob/poisson_binomial.h"
#include "src/prob/tail_bounds.h"
#include "src/util/check.h"

namespace pfci {

namespace {

/// Tail-bound mass below which a probability is treated as exactly 0/1.
/// This is at the double rounding-noise level of the DP itself, so the
/// short circuit never changes a threshold comparison.
constexpr double kNegligible = 1e-15;

}  // namespace

DpWorkspace& LocalDpWorkspace() {
  thread_local DpWorkspace workspace;
  return workspace;
}

FrequentProbability::FrequentProbability(const VerticalIndex& index,
                                         std::size_t min_sup,
                                         EvalCache* cache,
                                         std::size_t table_floor)
    : index_(&index),
      min_sup_(min_sup),
      cache_(cache),
      table_floor_(table_floor) {
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
  const std::optional<double> settled =
      lookup.found ? std::nullopt : ShortCircuit(mu, n);
  if (settled.has_value()) {
    if (cache_ == nullptr) return *settled;
    // PrF ~ 0 stays short-circuited at every higher threshold, so the
    // cached mu alone answers them. PrF ~ 1 may not: with a floor set
    // (sweep), prefill the table a higher threshold will need — unless
    // the short circuit still fires at the floor itself, in which case it
    // fires at every threshold up to it (the lower-tail mass only grows
    // with the threshold) and the table would never be read. The return
    // value stays the short-circuit 1.0 either way.
    const std::size_t floor = std::min(table_floor_, n);
    const bool prefill =
        *settled == 1.0 && floor > min_sup_ &&
        ChernoffLowerTail(mu, static_cast<double>(floor) - 1.0) >=
            kNegligible;
    if (!prefill) {
      cache_->Insert(tids, mu, 0, {1.0});
      return *settled;
    }
  }

  dp_runs_.fetch_add(1, std::memory_order_relaxed);
  if (cache_ == nullptr) {
    return PoissonBinomialTailAtLeast(probs.data(), n, min_sup_,
                                      &workspace.dp);
  }
  // Tabulate every threshold up to the floor (clamped to |tids|: any probe
  // above that size is rejected by the tids.size() check before reaching
  // the cache), so this and every smaller threshold are answered from the
  // cache next time. table[t] is bit-identical to a direct DP at t for
  // every t <= threshold, so the floor changes work done, never values.
  const std::size_t threshold = std::max(min_sup_, std::min(table_floor_, n));
  std::vector<double> table;
  PoissonBinomialTailTable(probs.data(), n, threshold, &workspace.dp, &table);
  const double result = settled.value_or(table[min_sup_]);
  cache_->Insert(tids, mu, threshold, std::move(table));
  return result;
}

double FrequentProbability::PrFUpperBound(const TidSet& tids) const {
  if (tids.size() < min_sup_) return 0.0;
  return BestUpperTailBound(index_->SumProbsOf(tids), tids.size(),
                            static_cast<double>(min_sup_));
}

}  // namespace pfci
