#include "src/core/extension_events.h"

#include <cmath>
#include <limits>
#include <utility>

#include "src/util/check.h"

namespace pfci {

namespace {

/// log Π (1 - p_T) over `tids`; returns -infinity when some p_T == 1
/// (a certain transaction can never be absent, the event is impossible).
double LogMissProbability(const VerticalIndex& index, const TidSet& tids) {
  double log_miss = 0.0;
  bool impossible = false;
  tids.ForEach([&](Tid tid) {
    if (impossible) return;
    const double p = index.db().prob(tid);
    if (p >= 1.0) {
      impossible = true;
      return;
    }
    log_miss += std::log1p(-p);
  });
  if (impossible) return -std::numeric_limits<double>::infinity();
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
    ExtensionEvent event;
    event.item = item;
    event.tids = Intersect(x_tids, index.TidsOfItem(item));
    if (stats != nullptr) ++stats->intersections;
    // support(X+e) can never reach min_sup >= 1: C_i is impossible.
    if (event.tids.size() < freq.min_sup()) continue;
    if (event.tids.size() == x_tids.size()) has_same_count_extension_ = true;
    const TidSet miss = Difference(x_tids, event.tids);
    if (stats != nullptr) ++stats->intersections;
    event.log_miss = LogMissProbability(index, miss);
    if (!std::isfinite(event.log_miss)) continue;
    event.pr_freq = freq.PrF(event.tids);
    event.prob = std::exp(event.log_miss) * event.pr_freq;
    if (event.prob > 0.0) events_.push_back(std::move(event));
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
  const TidSet miss = Difference(*x_tids_, tids);
  const double log_miss = LogMissProbability(*index_, miss);
  if (!std::isfinite(log_miss)) return 0.0;
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
