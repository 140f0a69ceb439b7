// Attribute-level (item-level) uncertainty — the model of Chui et al. [9].
//
// The paper's own problem lives in the tuple-uncertainty model (whole
// transactions exist with a probability); the other interpretation its
// related work surveys attaches an independent existence probability to
// every item *occurrence*. Under that model a transaction contains
// itemset X with probability Π_{i∈X} p_{T,i}, and since transactions stay
// independent, support(X) is still Poisson-binomial — over the
// per-transaction containment probabilities — so the expected-support
// and probabilistic-frequent machinery carries over (see
// item_uncertain_miners.h). Closedness does NOT carry over: within one
// transaction the containment events of X and its supersets are
// dependent, which breaks the extension-event factorization the closed
// machinery relies on; this library therefore scopes the item-level model
// to frequency-style mining only.
#ifndef PFCI_DATA_ITEM_UNCERTAIN_DATABASE_H_
#define PFCI_DATA_ITEM_UNCERTAIN_DATABASE_H_

#include <cstddef>
#include <vector>

#include "src/data/item.h"
#include "src/data/itemset.h"

namespace pfci {

/// One possibly-present item occurrence.
struct ProbItem {
  Item item = 0;
  double prob = 1.0;  ///< Existence probability, in (0, 1].
};

/// One item-uncertain transaction: occurrences sorted by item id,
/// duplicate-free.
struct ItemUncertainTransaction {
  std::vector<ProbItem> items;

  /// Probability that this transaction contains all of X
  /// (Π p over X's occurrences; 0 if some item of X never occurs here).
  double ContainmentProb(const Itemset& x) const;
};

/// A database of item-uncertain transactions.
class ItemUncertainDatabase {
 public:
  ItemUncertainDatabase() = default;

  /// Appends a transaction; occurrences are sorted and must not repeat an
  /// item; probabilities must lie in (0, 1] (CHECKed).
  void Add(std::vector<ProbItem> items);

  std::size_t size() const { return transactions_.size(); }
  bool empty() const { return transactions_.empty(); }
  const ItemUncertainTransaction& transaction(Tid tid) const {
    return transactions_[tid];
  }
  const std::vector<ItemUncertainTransaction>& transactions() const {
    return transactions_;
  }

  /// Per-transaction containment probabilities of X, in tid order
  /// (support(X) is Poisson-binomial over the non-zero entries).
  std::vector<double> ContainmentProbs(const Itemset& x) const;

  /// Expected support: Σ_T Pr{T contains X} ([9]'s frequency measure).
  double ExpectedSupport(const Itemset& x) const;

 private:
  std::vector<ItemUncertainTransaction> transactions_;
};

/// The containment probabilities of one itemset X: every transaction
/// in which all of X occurs, with Pr{T contains X}, in ascending tid
/// order — the item-level analogue of a tid-list.
struct ContainmentList {
  std::vector<Tid> tids;
  std::vector<double> probs;
};

/// Per-item containment lists of an ItemUncertainDatabase, built once:
/// the node covers of the item-level frequentness enumeration
/// (src/core/search/pfi_enumeration.h).
class ItemColumns {
 public:
  using Cover = ContainmentList;

  explicit ItemColumns(const ItemUncertainDatabase& db);

  /// Items that occur in at least one transaction, ascending.
  const std::vector<Item>& occurring_items() const { return items_; }

  /// The containment list of {item}: its (tid, prob) occurrences.
  const ContainmentList& CoverOf(Item item) const { return columns_[item]; }

  /// The containment list of X ∪ {item} from that of X: a merge against
  /// the item's column, each kept probability multiplied by the item's.
  ContainmentList Extend(const ContainmentList& base, Item item) const;

  /// Heap bytes resident in the columns (charged to a run's memory
  /// budget like a VerticalIndex).
  std::size_t MemoryBytes() const;

 private:
  std::vector<ContainmentList> columns_;  ///< Indexed by item id.
  std::vector<Item> items_;
};

}  // namespace pfci

#endif  // PFCI_DATA_ITEM_UNCERTAIN_DATABASE_H_
