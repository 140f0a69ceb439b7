#include "src/exact/charm_miner.h"

#include <algorithm>
#include <unordered_map>

#include "src/data/tidset.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/runtime.h"

namespace pfci {

namespace {

/// An IT-tree node: itemset with its tidset.
struct ItNode {
  Itemset items;
  TidSet tids;
  bool erased = false;
};

/// Hash of a tidset (order-independent since iteration is ascending).
std::uint64_t TidsetHash(const TidSet& tids) {
  std::uint64_t hash = 1469598103934665603ULL;
  tids.ForEach([&hash](Tid tid) {
    hash ^= tid + 0x9e3779b9;
    hash *= 1099511628211ULL;
  });
  return hash;
}

/// Mined closed sets, indexed by tidset hash for subsumption checks.
class ClosedSetStore {
 public:
  /// True if a stored closed set has the same support and contains X
  /// (then X is not closed: its closure was already mined).
  bool Subsumes(const Itemset& x, const TidSet& tids) const {
    const auto it = by_hash_.find(TidsetHash(tids));
    if (it == by_hash_.end()) return false;
    for (const SupportedItemset& closed : it->second) {
      if (closed.support == tids.size() && x.IsSubsetOf(closed.items)) {
        return true;
      }
    }
    return false;
  }

  void Insert(Itemset items, const TidSet& tids) {
    by_hash_[TidsetHash(tids)].push_back(
        SupportedItemset{std::move(items), tids.size()});
  }

  std::vector<SupportedItemset> TakeAll() {
    std::vector<SupportedItemset> all;
    for (auto& [hash, bucket] : by_hash_) {
      for (SupportedItemset& entry : bucket) all.push_back(std::move(entry));
    }
    std::sort(all.begin(), all.end());
    return all;
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<SupportedItemset>> by_hash_;
};

/// Work counters for the optional telemetry of one mining call.
struct ExtendWork {
  std::uint64_t nodes = 0;
  std::uint64_t intersections = 0;
};

/// CHARM-EXTEND: processes a sibling group, applying the four tidset
/// properties, recursing into each node's children, then emitting the
/// (possibly extended) node if no mined closed set subsumes it.
void Extend(std::vector<ItNode>& group, std::size_t min_sup,
            ClosedSetStore* store, ExtendWork& work, RunController& rt,
            WorkUnitBudget& unit) {
  // Process in order of increasing tidset size (CHARM's heuristic, and
  // required so closures are mined before their subsumed subsets).
  std::sort(group.begin(), group.end(), [](const ItNode& a, const ItNode& b) {
    if (a.tids.size() != b.tids.size()) return a.tids.size() < b.tids.size();
    return a.items < b.items;
  });

  for (std::size_t i = 0; i < group.size(); ++i) {
    // Once truncated/stopped, no further insertion may happen: a set
    // inserted later could miss the earlier-branch subsumer that proves
    // it non-closed, so the store stays a verified prefix only if the
    // cut is sticky.
    PFCI_FAILPOINT("charm/node");
    if (rt.Checkpoint()) return;
    if (group[i].erased) continue;
    if (!unit.TakeNode()) return;
    ++work.nodes;
    ItNode& xi = group[i];
    std::vector<ItNode> children;
    for (std::size_t j = i + 1; j < group.size(); ++j) {
      if (group[j].erased) continue;
      ItNode& xj = group[j];
      TidSet shared = Intersect(xi.tids, xj.tids);
      ++work.intersections;
      if (shared.size() < min_sup) continue;
      const bool covers_xi = shared.size() == xi.tids.size();
      const bool covers_xj = shared.size() == xj.tids.size();
      if (covers_xi && covers_xj) {
        // Property 1: identical tidsets — Xj's items always co-occur with
        // Xi; absorb them everywhere and drop Xj.
        xi.items = xi.items.UnionWith(xj.items);
        for (ItNode& child : children) {
          child.items = child.items.UnionWith(xj.items);
        }
        xj.erased = true;
      } else if (covers_xi) {
        // Property 2: T(Xi) ⊂ T(Xj) — Xi always co-occurs with Xj.
        xi.items = xi.items.UnionWith(xj.items);
        for (ItNode& child : children) {
          child.items = child.items.UnionWith(xj.items);
        }
      } else if (covers_xj) {
        // Property 3: T(Xj) ⊂ T(Xi) — Xj is replaced by the combination.
        children.push_back(
            ItNode{xi.items.UnionWith(xj.items), std::move(shared)});
        xj.erased = true;
      } else {
        // Property 4: incomparable tidsets.
        children.push_back(
            ItNode{xi.items.UnionWith(xj.items), std::move(shared)});
      }
    }
    if (!children.empty()) Extend(children, min_sup, store, work, rt, unit);
    if (unit.truncated || rt.StopRequested()) return;
    if (!store->Subsumes(xi.items, xi.tids)) {
      store->Insert(xi.items, xi.tids);
    }
  }
}

}  // namespace

std::vector<SupportedItemset> CharmMineClosedItemsets(
    const TransactionDatabase& db, std::size_t min_sup, TraceSink* trace,
    RunController* runtime) {
  PFCI_CHECK(min_sup >= 1);
  if (db.empty() || db.size() < min_sup) return {};

  // A standalone call runs under a local unlimited controller.
  RunController unlimited;
  RunController& rt = runtime != nullptr ? *runtime : unlimited;
  ClosedSetStore store;
  ExtendWork work;
  WorkUnitBudget unit = rt.UnitBudget(0, 1);
  {
    TraceSpan span(trace, "charm_extend");
    // Per-item tidsets.
    std::vector<TidList> tids_by_item(db.MaxItemPlusOne());
    for (std::size_t tid = 0; tid < db.size(); ++tid) {
      for (Item item : db.transaction(tid).items()) {
        tids_by_item[item].push_back(static_cast<Tid>(tid));
      }
    }
    std::vector<ItNode> roots;
    for (Item item = 0; item < tids_by_item.size(); ++item) {
      if (tids_by_item[item].size() >= min_sup) {
        roots.push_back(ItNode{
            Itemset{item}, TidSet(std::move(tids_by_item[item]), db.size())});
      }
    }
    if (!roots.empty()) Extend(roots, min_sup, &store, work, rt, unit);
  }
  if (unit.truncated) rt.RecordTruncation(Outcome::kBudgetExhausted);
  TraceCounter(trace, "nodes_expanded", work.nodes);
  TraceCounter(trace, "intersections", work.intersections);
  return store.TakeAll();
}

}  // namespace pfci
