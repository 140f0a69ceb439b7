#include "src/exact/fp_growth.h"

#include <algorithm>

#include "src/exact/fp_tree.h"
#include "src/util/check.h"

namespace pfci {

void FpGrowth(const TransactionDatabase& db, std::size_t min_sup,
              const std::function<void(const Itemset&, std::size_t)>& emit) {
  PFCI_CHECK(min_sup >= 1);
  RunFpGrowth(
      [&db](const auto& visit) {
        for (const Itemset& t : db.transactions()) visit(t, std::size_t{1});
      },
      db.MaxItemPlusOne(), min_sup, emit, [] { return true; });
}

std::vector<SupportedItemset> MineFrequentItemsets(
    const TransactionDatabase& db, std::size_t min_sup) {
  std::vector<SupportedItemset> result;
  FpGrowth(db, min_sup, [&](const Itemset& itemset, std::size_t support) {
    result.push_back(SupportedItemset{itemset, support});
  });
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace pfci
