// FP-tree and FP-growth [13], written once over the row weight:
// std::size_t multiplicities for exact data (FpGrowth), double existence
// probabilities for tuple-level uncertain data. The latter is UF-growth
// [15]: the expected support of X is the total existence probability of
// the transactions containing it, a weighted support, so the same tree
// with real-valued counts mines it.
#ifndef PFCI_EXACT_FP_TREE_H_
#define PFCI_EXACT_FP_TREE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "src/data/item.h"
#include "src/data/itemset.h"

namespace pfci {

/// A transaction (already filtered and ordered) with its weight, as
/// inserted into an FP-tree. Conditional pattern bases are weighted by
/// the node they hang from.
template <typename Weight>
struct FpRow {
  std::vector<Item> items;  ///< In tree insertion order.
  Weight weight{};
};

/// Prefix tree with per-item node links and a header table.
template <typename Weight>
class FpTree {
 public:
  struct Node {
    Item item = 0;
    Weight weight{};
    Node* parent = nullptr;
    Node* next_same_item = nullptr;  ///< Node-link chain.
    std::vector<std::unique_ptr<Node>> children;
  };

  /// Header entry: an item, its total weight in the tree, and the head of
  /// its node-link chain.
  struct HeaderEntry {
    Item item = 0;
    Weight total_weight{};
    Node* head = nullptr;
  };

  /// Builds the tree from weighted rows. Items inside each row must
  /// already be ordered consistently (RunFpGrowth orders them by
  /// descending global weight, the classic FP-growth heuristic).
  explicit FpTree(const std::vector<FpRow<Weight>>& rows) {
    Item max_item_plus_one = 0;
    for (const auto& row : rows) {
      for (Item item : row.items) {
        max_item_plus_one = std::max(max_item_plus_one, item + 1);
      }
    }
    header_slot_.assign(max_item_plus_one, -1);
    for (const auto& row : rows) {
      if (!row.items.empty()) Insert(row.items, row.weight);
    }
  }

  /// Header entries present in this tree, in order of first insertion.
  const std::vector<HeaderEntry>& header() const { return header_; }

  /// The conditional pattern base of `item`: for every node carrying the
  /// item, the path from its parent up to the root (reversed into root-
  /// first order) weighted by the node's weight.
  std::vector<FpRow<Weight>> ConditionalPatternBase(Item item) const {
    std::vector<FpRow<Weight>> base;
    if (item >= header_slot_.size() || header_slot_[item] < 0) return base;
    for (const Node* node = header_[header_slot_[item]].head;
         node != nullptr; node = node->next_same_item) {
      FpRow<Weight> row;
      row.weight = node->weight;
      for (const Node* up = node->parent;
           up != nullptr && up->parent != nullptr; up = up->parent) {
        row.items.push_back(up->item);
      }
      std::reverse(row.items.begin(), row.items.end());
      if (!row.items.empty()) base.push_back(std::move(row));
    }
    return base;
  }

 private:
  void Insert(const std::vector<Item>& items, Weight weight) {
    Node* node = &root_;
    for (Item item : items) {
      Node* child = nullptr;
      for (const auto& existing : node->children) {
        if (existing->item == item) {
          child = existing.get();
          break;
        }
      }
      if (child == nullptr) {
        auto owned = std::make_unique<Node>();
        child = owned.get();
        child->item = item;
        child->parent = node;
        node->children.push_back(std::move(owned));
        // Thread the node into the header chain.
        int slot = header_slot_[item];
        if (slot < 0) {
          slot = static_cast<int>(header_.size());
          header_slot_[item] = slot;
          header_.push_back(HeaderEntry{item, Weight{}, nullptr});
        }
        child->next_same_item = header_[slot].head;
        header_[slot].head = child;
      }
      child->weight += weight;
      header_[header_slot_[item]].total_weight += weight;
      node = child;
    }
  }

  Node root_;
  std::vector<HeaderEntry> header_;
  std::vector<int> header_slot_;  ///< item -> index into header_, or -1.
};

namespace internal {

/// Recursive FP-growth over a tree built from `rows`. `suffix` holds the
/// items conditioned on so far (a sorted itemset is rebuilt at emit
/// time, so internal order does not matter). After emitting an itemset
/// and before growing its conditional tree, calls `visit_node()`; when
/// that returns false the growth stops at once and returns false.
template <typename Weight, typename Emit, typename VisitNode>
bool GrowFpTree(const std::vector<FpRow<Weight>>& rows, Weight min_weight,
                std::vector<Item>& suffix, Emit& emit,
                VisitNode& visit_node) {
  const FpTree<Weight> tree(rows);
  for (const auto& entry : tree.header()) {
    if (entry.total_weight < min_weight) continue;
    suffix.push_back(entry.item);
    emit(Itemset(suffix), entry.total_weight);
    if (!visit_node()) return false;

    // The conditional base, restricted to items still frequent there.
    std::vector<FpRow<Weight>> base = tree.ConditionalPatternBase(entry.item);
    if (!base.empty()) {
      Item max_item_plus_one = 0;
      for (const auto& row : base) {
        for (Item item : row.items) {
          max_item_plus_one = std::max(max_item_plus_one, item + 1);
        }
      }
      std::vector<Weight> weights(max_item_plus_one, Weight{});
      for (const auto& row : base) {
        for (Item item : row.items) weights[item] += row.weight;
      }
      std::vector<FpRow<Weight>> filtered;
      filtered.reserve(base.size());
      for (const auto& row : base) {
        FpRow<Weight> kept;
        kept.weight = row.weight;
        for (Item item : row.items) {
          if (weights[item] >= min_weight) kept.items.push_back(item);
        }
        if (!kept.items.empty()) filtered.push_back(std::move(kept));
      }
      if (!filtered.empty() &&
          !GrowFpTree(filtered, min_weight, suffix, emit, visit_node)) {
        return false;
      }
    }
    suffix.pop_back();
  }
  return true;
}

}  // namespace internal

/// FP-growth over weighted transactions: calls `emit(itemset, weight)`
/// once for every non-empty itemset whose total weight reaches
/// `min_weight`, in unspecified order. `for_each_row(visit)` must call
/// `visit(items, weight)` for every transaction, in the same order on
/// each of its two calls; items lie below `max_item_plus_one`. The
/// setup ranks items by descending global weight (ties by id), drops the
/// items below `min_weight` and inserts each transaction's remaining
/// items in rank order. `visit_node()` is the per-node hook of
/// GrowFpTree: called once after each emit, it stops the run by
/// returning false, leaving what was emitted so far (each itemset with
/// its exact weight).
template <typename Weight, typename ForEachRow, typename Emit,
          typename VisitNode>
void RunFpGrowth(const ForEachRow& for_each_row, Item max_item_plus_one,
                 Weight min_weight, Emit&& emit, VisitNode&& visit_node) {
  std::vector<Weight> totals(max_item_plus_one, Weight{});
  for_each_row([&](const Itemset& items, Weight weight) {
    for (Item item : items.items()) totals[item] += weight;
  });
  std::vector<Item> frequent_items;
  for (Item item = 0; item < totals.size(); ++item) {
    if (totals[item] >= min_weight) frequent_items.push_back(item);
  }
  std::sort(frequent_items.begin(), frequent_items.end(),
            [&](Item a, Item b) {
              if (totals[a] != totals[b]) return totals[a] > totals[b];
              return a < b;
            });
  std::vector<std::size_t> rank(totals.size(), 0);
  std::vector<bool> is_frequent(totals.size(), false);
  for (std::size_t r = 0; r < frequent_items.size(); ++r) {
    rank[frequent_items[r]] = r;
    is_frequent[frequent_items[r]] = true;
  }

  std::vector<FpRow<Weight>> rows;
  for_each_row([&](const Itemset& items, Weight weight) {
    FpRow<Weight> row;
    row.weight = weight;
    for (Item item : items.items()) {
      if (is_frequent[item]) row.items.push_back(item);
    }
    if (row.items.empty()) return;
    std::sort(row.items.begin(), row.items.end(),
              [&](Item a, Item b) { return rank[a] < rank[b]; });
    rows.push_back(std::move(row));
  });

  std::vector<Item> suffix;
  internal::GrowFpTree(rows, min_weight, suffix, emit, visit_node);
}

}  // namespace pfci

#endif  // PFCI_EXACT_FP_TREE_H_
