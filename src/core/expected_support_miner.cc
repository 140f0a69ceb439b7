#include "src/core/expected_support_miner.h"

#include "src/exact/fp_tree.h"
#include "src/util/check.h"

namespace pfci {

namespace internal {

std::vector<PfciEntry> MineExpectedSupportFpGrowth(
    const UncertainDatabase& db, double min_esup) {
  PFCI_CHECK(min_esup > 0.0);
  std::vector<PfciEntry> result;
  RunFpGrowth(
      [&db](const auto& visit) {
        for (const auto& t : db.transactions()) visit(t.items, t.prob);
      },
      db.MaxItemPlusOne(), min_esup,
      [&result](const Itemset& items, double esup) {
        result.push_back(FrequentnessEntry(items, esup));
      });
  return result;
}

}  // namespace internal

}  // namespace pfci
