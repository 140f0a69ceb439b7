#include "src/core/extension_events.h"

#include <cmath>
#include <utility>

#include "src/util/check.h"

namespace pfci {

namespace {

/// The dead-miss cutoff. Miss terms log(1 - p_T) are <= 0, so a walk's
/// partial sum only falls: once it is below the cutoff, so is the final
/// sum, and exp() of anything below about -745.13 (half the smallest
/// subnormal, 2^-1075) is exactly 0.0. exp(log_miss) * PrF is then 0.0
/// whatever PrF is, so the walk stops and PrF is never evaluated. A
/// p_T = 1 term is -infinity: the event is impossible.
constexpr double kDeadLogMiss = -746.0;

/// log Π (1 - p_T) over T ∈ a \ b, summed in ascending tid order from the
/// index's log-absence column. Stops once the partial sum drops below
/// kDeadLogMiss: a result below the cutoff means the event is dead.
double LogMiss(const VerticalIndex& index, const TidSet& a, const TidSet& b) {
  double log_miss = 0.0;
  ForEachInDifference(a, b, [&](Tid tid) {
    log_miss += index.LogAbsent(tid);
    return log_miss >= kDeadLogMiss;
  });
  return log_miss;
}

}  // namespace

ExtensionEventSet::ExtensionEventSet(const VerticalIndex& index,
                                     const FrequentProbability& freq,
                                     const Itemset& x, const TidSet& x_tids,
                                     MiningStats* stats)
    : index_(&index), freq_(&freq), x_tids_(&x_tids) {
  for (Item item : index.occurring_items()) {
    if (x.Contains(item)) continue;
    const TidSet& item_tids = index.TidsOfItem(item);
    // Count before building: support(X+e) can never reach min_sup >= 1,
    // so C_i is impossible, and nothing is materialized for it.
    const std::size_t count = item_tids.size() < freq.min_sup()
                                  ? 0
                                  : IntersectSize(x_tids, item_tids);
    if (stats != nullptr) ++stats->intersections;
    if (count < freq.min_sup()) continue;
    if (count == x_tids.size()) has_same_count_extension_ = true;
    // Tids(X) \ Tids(X+e) = Tids(X) \ Tids(e): the miss walk needs no
    // Tids(X+e), so a dead event never builds one.
    const double log_miss = LogMiss(index, x_tids, item_tids);
    if (stats != nullptr) ++stats->intersections;
    if (log_miss < kDeadLogMiss) continue;
    TidSet tids = Intersect(x_tids, item_tids);
    const double pr_freq = freq.PrF(tids);
    const double prob = std::exp(log_miss) * pr_freq;
    if (prob > 0.0) {
      events_.push_back({item, std::move(tids), log_miss, pr_freq, prob});
    }
  }
}

double ExtensionEventSet::PrIntersection(
    const std::vector<std::size_t>& subset) const {
  PFCI_CHECK(!subset.empty());
  TidSet tids = events_[subset[0]].tids;
  for (std::size_t k = 1; k < subset.size() && !tids.empty(); ++k) {
    tids = Intersect(tids, events_[subset[k]].tids);
  }
  if (tids.size() < freq_->min_sup()) return 0.0;
  const double log_miss = LogMiss(*index_, *x_tids_, tids);
  if (log_miss < kDeadLogMiss) return 0.0;
  return std::exp(log_miss) * freq_->PrF(tids);
}

PairwiseProbabilities ExtensionEventSet::BuildPairwise() const {
  PairwiseProbabilities pairs(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    pairs.Set(i, i, events_[i].prob);
    for (std::size_t j = i + 1; j < events_.size(); ++j) {
      pairs.Set(i, j, PrIntersection({i, j}));
    }
  }
  return pairs;
}

}  // namespace pfci
