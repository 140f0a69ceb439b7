#include "src/data/item_uncertain_database.h"

#include <algorithm>

#include "src/util/check.h"

namespace pfci {

double ItemUncertainTransaction::ContainmentProb(const Itemset& x) const {
  double prob = 1.0;
  auto it = items.begin();
  for (Item needed : x.items()) {
    while (it != items.end() && it->item < needed) ++it;
    if (it == items.end() || it->item != needed) return 0.0;
    prob *= it->prob;
  }
  return prob;
}

void ItemUncertainDatabase::Add(std::vector<ProbItem> items) {
  std::sort(items.begin(), items.end(),
            [](const ProbItem& a, const ProbItem& b) {
              return a.item < b.item;
            });
  for (std::size_t i = 0; i < items.size(); ++i) {
    PFCI_CHECK(items[i].prob > 0.0 && items[i].prob <= 1.0);
    if (i > 0) PFCI_CHECK(items[i - 1].item != items[i].item);
  }
  transactions_.push_back(ItemUncertainTransaction{std::move(items)});
}

std::vector<double> ItemUncertainDatabase::ContainmentProbs(
    const Itemset& x) const {
  std::vector<double> probs;
  probs.reserve(transactions_.size());
  for (const auto& t : transactions_) probs.push_back(t.ContainmentProb(x));
  return probs;
}

double ItemUncertainDatabase::ExpectedSupport(const Itemset& x) const {
  double esup = 0.0;
  for (const auto& t : transactions_) esup += t.ContainmentProb(x);
  return esup;
}

ItemColumns::ItemColumns(const ItemUncertainDatabase& db) {
  for (Tid tid = 0; tid < db.size(); ++tid) {
    for (const ProbItem& occurrence : db.transaction(tid).items) {
      if (occurrence.item >= columns_.size()) {
        columns_.resize(occurrence.item + 1);
      }
      columns_[occurrence.item].tids.push_back(tid);
      columns_[occurrence.item].probs.push_back(occurrence.prob);
    }
  }
  for (Item item = 0; item < columns_.size(); ++item) {
    if (!columns_[item].tids.empty()) items_.push_back(item);
  }
}

ContainmentList ItemColumns::Extend(const ContainmentList& base,
                                    Item item) const {
  const ContainmentList& column = columns_[item];
  ContainmentList out;
  const std::size_t n = base.tids.size();
  const std::size_t m = column.tids.size();
  out.tids.reserve(std::min(n, m));
  out.probs.reserve(std::min(n, m));
  std::size_t j = 0;
  for (std::size_t i = 0; i < n; ++i) {
    while (j < m && column.tids[j] < base.tids[i]) ++j;
    if (j == m) break;
    if (column.tids[j] != base.tids[i]) continue;
    out.tids.push_back(base.tids[i]);
    out.probs.push_back(base.probs[i] * column.probs[j]);
  }
  return out;
}

std::size_t ItemColumns::MemoryBytes() const {
  std::size_t bytes = columns_.capacity() * sizeof(ContainmentList) +
                      items_.capacity() * sizeof(Item);
  for (const ContainmentList& column : columns_) {
    bytes += column.tids.capacity() * sizeof(Tid) +
             column.probs.capacity() * sizeof(double);
  }
  return bytes;
}

}  // namespace pfci
