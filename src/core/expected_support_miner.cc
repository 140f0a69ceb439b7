#include "src/core/expected_support_miner.h"

#include "src/exact/fp_tree.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"

namespace pfci {

namespace internal {

std::vector<PfciEntry> MineExpectedSupportFpGrowth(
    const UncertainDatabase& db, double min_esup, MiningStats* stats,
    RunController& rt) {
  PFCI_CHECK(min_esup > 0.0);
  // The weighted rows the tree is built from, before the infrequent
  // items are dropped, are charged once; then an undersized budget or a
  // cancelled run stops before the first emit.
  std::size_t bytes = 0;
  for (const auto& t : db.transactions()) {
    bytes += sizeof(FpRow<double>) + t.items.size() * sizeof(Item);
  }
  rt.ChargeBytes(bytes);
  std::vector<PfciEntry> result;
  if (!rt.Checkpoint()) {
    // Sequential growth: one logical work unit owns the whole budget.
    WorkUnitBudget unit = rt.UnitBudget(0, 1);
    RunFpGrowth(
        [&db](const auto& visit) {
          for (const auto& t : db.transactions()) visit(t.items, t.prob);
        },
        db.MaxItemPlusOne(), min_esup,
        [&result](const Itemset& items, double esup) {
          result.push_back(FrequentnessEntry(items, esup));
        },
        // Node-expansion checkpoint: an itemset is emitted before its
        // conditional tree grows, so stopping here leaves a verified
        // prefix of the answer.
        [&] {
          PFCI_FAILPOINT("esup-fp/node");
          if (rt.Checkpoint() || !unit.TakeNode()) return false;
          if (stats != nullptr) ++stats->nodes_visited;
          return true;
        });
    if (unit.truncated) rt.RecordTruncation(Outcome::kBudgetExhausted);
  }
  rt.ReleaseBytes(bytes);
  return result;
}

}  // namespace internal

}  // namespace pfci
