// Vertical (item -> tid-set) index over an uncertain database.
#ifndef PFCI_DATA_VERTICAL_INDEX_H_
#define PFCI_DATA_VERTICAL_INDEX_H_

#include <vector>

#include "src/data/item.h"
#include "src/data/itemset.h"
#include "src/data/tidlist.h"
#include "src/data/tidset.h"
#include "src/data/uncertain_database.h"

namespace pfci {

/// Precomputed per-item TidSets plus helpers to derive Tids(X) for any
/// itemset X by intersection, and a contiguous tid-ordered copy of the
/// transaction existence probabilities so probability gathers are pure
/// copies with no per-node allocation. Items absent from the database
/// have empty tid-sets.
class VerticalIndex {
 public:
  explicit VerticalIndex(const UncertainDatabase& db,
                         TidSetMode mode = TidSetMode::kAdaptive);

  using Cover = TidSet;

  /// Tid-set of a single item (empty if the item never occurs).
  const TidSet& TidsOfItem(Item item) const;

  /// The frequentness enumeration's node covers (like ItemColumns):
  /// Tids({item}), and Tids(X ∪ {item}) from Tids(X) by one Intersect.
  const TidSet& CoverOf(Item item) const { return TidsOfItem(item); }
  TidSet Extend(const TidSet& tids, Item item) const {
    return Intersect(tids, TidsOfItem(item));
  }

  /// Tids(X): transactions possibly containing the whole itemset.
  /// The empty itemset maps to all transactions.
  TidSet TidsOf(const Itemset& x) const;

  /// Items that occur in at least one transaction, ascending.
  const std::vector<Item>& occurring_items() const { return occurring_items_; }

  /// Tid-set {0, ..., |db| - 1} of every transaction.
  const TidSet& all_tids() const { return all_tids_; }

  /// Copies the existence probabilities of the given transactions, in
  /// ascending tid order, into `*out` (resized to tids.size()). Allocates
  /// nothing once `*out` has reached capacity — the per-node fast path.
  void GatherProbs(const TidSet& tids, std::vector<double>* out) const;

  /// Existence probabilities of the given transactions, in tid order.
  /// Allocating convenience form of GatherProbs.
  std::vector<double> ProbsOf(const TidSet& tids) const;

  /// Sum of existence probabilities over `tids`, accumulated in ascending
  /// tid order (bit-identical to summing ProbsOf(tids) left to right).
  double SumProbsOf(const TidSet& tids) const;

  /// log Pr(transaction `tid` is absent) = log1p(-p): the term the
  /// extension events' miss products sum. -infinity when p = 1 (a certain
  /// transaction is never absent).
  double LogAbsent(Tid tid) const { return log_absent_[tid]; }

  /// Heap bytes resident in the index (per-item tid-sets, the
  /// probability and log-absence columns, the all-tids set). Miners charge this into the
  /// RunController's memory budget right after construction.
  std::size_t MemoryBytes() const;

  TidSetMode mode() const { return mode_; }
  const UncertainDatabase& db() const { return *db_; }

 private:
  const UncertainDatabase* db_;
  TidSetMode mode_;
  std::vector<TidSet> tids_by_item_;
  std::vector<Item> occurring_items_;
  TidSet all_tids_;
  TidSet empty_;
  std::vector<double> probs_;  ///< probs_[tid] = Pr(transaction tid exists).
  std::vector<double> log_absent_;  ///< log1p(-probs_[tid]); -inf at p = 1.
};

}  // namespace pfci

#endif  // PFCI_DATA_VERTICAL_INDEX_H_
