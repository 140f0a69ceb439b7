#include "src/data/vertical_index.h"

#include <utility>

namespace pfci {

VerticalIndex::VerticalIndex(const UncertainDatabase& db,
                             TidSetMode mode)
    : db_(&db), mode_(mode) {
  const std::size_t universe = db.size();
  std::vector<TidList> raw(db.MaxItemPlusOne());
  for (Tid tid = 0; tid < universe; ++tid) {
    for (Item item : db.transaction(tid).items.items()) {
      raw[item].push_back(tid);
    }
  }
  tids_by_item_.reserve(raw.size());
  for (Item item = 0; item < raw.size(); ++item) {
    if (!raw[item].empty()) occurring_items_.push_back(item);
    tids_by_item_.emplace_back(std::move(raw[item]), universe, mode_);
  }
  all_tids_ = TidSet::All(universe, mode_);
  empty_ = TidSet(TidList{}, universe, mode_);
  probs_.reserve(universe);
  for (Tid tid = 0; tid < universe; ++tid) probs_.push_back(db.prob(tid));
}

const TidSet& VerticalIndex::TidsOfItem(Item item) const {
  if (item >= tids_by_item_.size()) return empty_;
  return tids_by_item_[item];
}

TidSet VerticalIndex::TidsOf(const Itemset& x) const {
  if (x.empty()) return all_tids_;
  TidSet tids = TidsOfItem(x[0]);
  for (std::size_t i = 1; i < x.size() && !tids.empty(); ++i) {
    tids = Intersect(tids, TidsOfItem(x[i]));
  }
  return tids;
}

std::size_t VerticalIndex::Count(const Itemset& x) const {
  return TidsOf(x).size();
}

void VerticalIndex::GatherProbs(const TidSet& tids,
                                std::vector<double>* out) const {
  out->resize(tids.size());
  std::size_t i = 0;
  double* dst = out->data();
  tids.ForEach([&](Tid tid) { dst[i++] = probs_[tid]; });
}

std::vector<double> VerticalIndex::ProbsOf(const TidSet& tids) const {
  std::vector<double> probs;
  GatherProbs(tids, &probs);
  return probs;
}

std::vector<double> VerticalIndex::ProbsOf(const TidList& tids) const {
  std::vector<double> probs;
  probs.reserve(tids.size());
  for (Tid tid : tids) probs.push_back(db_->prob(tid));
  return probs;
}

std::size_t VerticalIndex::MemoryBytes() const {
  std::size_t bytes = probs_.capacity() * sizeof(double) +
                      occurring_items_.capacity() * sizeof(Item) +
                      all_tids_.MemoryBytes();
  for (const TidSet& tids : tids_by_item_) bytes += tids.MemoryBytes();
  return bytes;
}

double VerticalIndex::SumProbsOf(const TidSet& tids) const {
  double sum = 0.0;
  tids.ForEach([&](Tid tid) { sum += probs_[tid]; });
  return sum;
}

}  // namespace pfci
