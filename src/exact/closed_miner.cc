#include "src/exact/closed_miner.h"

#include <algorithm>
#include <cstdint>

#include "src/data/tidset.h"
#include "src/exact/fp_growth.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/runtime.h"

namespace pfci {

namespace {

/// Exact-data vertical index: tid-sets over a TransactionDatabase.
class ExactIndex {
 public:
  explicit ExactIndex(const TransactionDatabase& db) : db_(&db) {
    std::vector<TidList> raw(db.MaxItemPlusOne());
    for (std::size_t tid = 0; tid < db.size(); ++tid) {
      for (Item item : db.transaction(tid).items()) {
        raw[item].push_back(static_cast<Tid>(tid));
      }
    }
    tids_by_item_.reserve(raw.size());
    for (Item item = 0; item < raw.size(); ++item) {
      tids_by_item_.emplace_back(std::move(raw[item]), db.size());
    }
  }

  const TidSet& TidsOfItem(Item item) const { return tids_by_item_[item]; }

  std::size_t num_items() const { return tids_by_item_.size(); }

  /// Items contained in every transaction of `tids` (tids non-empty).
  std::vector<Item> ClosureOf(const TidSet& tids) const {
    PFCI_DCHECK(!tids.empty());
    std::vector<Item> closure;
    bool first = true;
    tids.ForEach([&](Tid tid) {
      const auto& t = db_->transaction(tid).items();
      if (first) {
        closure.assign(t.begin(), t.end());
        first = false;
        return;
      }
      if (closure.empty()) return;
      std::vector<Item> next;
      next.reserve(closure.size());
      std::set_intersection(closure.begin(), closure.end(), t.begin(),
                            t.end(), std::back_inserter(next));
      closure.swap(next);
    });
    return closure;
  }

 private:
  const TransactionDatabase* db_;
  std::vector<TidSet> tids_by_item_;
};

/// Work counters for the optional telemetry of one mining call.
struct DfsWork {
  std::uint64_t nodes = 0;
  std::uint64_t intersections = 0;
};

/// DFS over prefix-preserving closure extensions.
///
/// `closure` is the (sorted) closed itemset at this node, `tids` its
/// tid-list, and `core` the extension item that produced it (items <= core
/// may not newly appear in a child closure outside the current closure).
void Dfs(const ExactIndex& index, std::size_t min_sup,
         const std::vector<Item>& closure, const TidSet& tids, long core,
         const std::function<void(const Itemset&, std::size_t)>& emit,
         DfsWork& work, RunController& rt, WorkUnitBudget& unit) {
  // Node-expansion checkpoint: each emitted closed set is final the
  // moment it emits, so cutting here leaves a verified prefix.
  PFCI_FAILPOINT("closed/node");
  if (rt.Checkpoint()) return;
  if (!unit.TakeNode()) return;
  ++work.nodes;
  if (!closure.empty()) emit(Itemset(closure), tids.size());

  for (Item j = static_cast<Item>(core + 1); j < index.num_items(); ++j) {
    if (unit.truncated || rt.StopRequested()) return;
    if (std::binary_search(closure.begin(), closure.end(), j)) continue;
    const TidSet child_tids = Intersect(tids, index.TidsOfItem(j));
    ++work.intersections;
    if (child_tids.size() < min_sup || child_tids.empty()) continue;
    std::vector<Item> child_closure = index.ClosureOf(child_tids);
    // Prefix-preservation test: the child closure must not introduce an
    // item smaller than j outside the parent closure, otherwise this
    // closed set is reachable (and emitted) from another branch.
    bool duplicate = false;
    for (Item k : child_closure) {
      if (k >= j) break;
      if (!std::binary_search(closure.begin(), closure.end(), k)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    Dfs(index, min_sup, child_closure, child_tids, static_cast<long>(j),
        emit, work, rt, unit);
  }
}

}  // namespace

void MineClosedItemsetsInto(
    const TransactionDatabase& db, std::size_t min_sup,
    const std::function<void(const Itemset&, std::size_t)>& emit,
    TraceSink* trace, RunController* runtime) {
  PFCI_CHECK(min_sup >= 1);
  // No itemset can have support >= min_sup beyond the database size.
  if (db.empty() || db.size() < min_sup) return;
  // A standalone call runs under a local unlimited controller.
  RunController unlimited;
  RunController& rt = runtime != nullptr ? *runtime : unlimited;
  DfsWork work;
  WorkUnitBudget unit = rt.UnitBudget(0, 1);
  {
    TraceSpan span(trace, "closed_dfs");
    const ExactIndex index(db);
    if (!rt.Checkpoint()) {
      const TidSet all_tids = TidSet::All(db.size());
      const std::vector<Item> root_closure = index.ClosureOf(all_tids);
      Dfs(index, min_sup, root_closure, all_tids, -1, emit, work, rt, unit);
    }
  }
  if (unit.truncated) rt.RecordTruncation(Outcome::kBudgetExhausted);
  TraceCounter(trace, "nodes_expanded", work.nodes);
  TraceCounter(trace, "intersections", work.intersections);
}

std::vector<SupportedItemset> MineClosedItemsets(const TransactionDatabase& db,
                                                 std::size_t min_sup,
                                                 TraceSink* trace) {
  std::vector<SupportedItemset> result;
  MineClosedItemsetsInto(
      db, min_sup,
      [&](const Itemset& itemset, std::size_t support) {
        result.push_back(SupportedItemset{itemset, support});
      },
      trace);
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<SupportedItemset> MineClosedItemsetsBruteForce(
    const TransactionDatabase& db, std::size_t min_sup) {
  const std::vector<SupportedItemset> frequent =
      MineFrequentItemsets(db, min_sup);
  std::vector<SupportedItemset> closed;
  for (const auto& candidate : frequent) {
    bool is_closed = true;
    for (const auto& other : frequent) {
      if (other.support == candidate.support &&
          other.items.IsProperSupersetOf(candidate.items)) {
        is_closed = false;
        break;
      }
    }
    if (is_closed) closed.push_back(candidate);
  }
  std::sort(closed.begin(), closed.end());
  return closed;
}

}  // namespace pfci
