#include "src/core/expected_support_miner.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "src/core/search/pfi_enumeration.h"
#include "src/util/check.h"

namespace pfci {

namespace {

// ---------------------------------------------------------------------
// UF-growth-style weighted FP-growth.
// ---------------------------------------------------------------------

/// A weighted item list: a (reordered, filtered) transaction or
/// conditional-pattern-base row with a real-valued weight.
struct WeightedRow {
  std::vector<Item> items;
  double weight = 0.0;
};

/// Prefix tree with real-valued counts (the UF-growth generalization).
class WeightedFpTree {
 public:
  struct Node {
    Item item = 0;
    double weight = 0.0;
    Node* parent = nullptr;
    Node* next_same_item = nullptr;
    std::vector<std::unique_ptr<Node>> children;
  };

  struct HeaderEntry {
    Item item = 0;
    double total_weight = 0.0;
    Node* head = nullptr;
  };

  explicit WeightedFpTree(const std::vector<WeightedRow>& rows) {
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

  const std::vector<HeaderEntry>& header() const { return header_; }

  std::vector<WeightedRow> ConditionalPatternBase(Item item) const {
    std::vector<WeightedRow> base;
    if (item >= header_slot_.size() || header_slot_[item] < 0) return base;
    for (const Node* node = header_[header_slot_[item]].head; node != nullptr;
         node = node->next_same_item) {
      WeightedRow row;
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
  void Insert(const std::vector<Item>& items, double weight) {
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
        int slot = header_slot_[item];
        if (slot < 0) {
          slot = static_cast<int>(header_.size());
          header_slot_[item] = slot;
          header_.push_back(HeaderEntry{item, 0.0, nullptr});
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
  std::vector<int> header_slot_;
};

void WeightedGrow(const std::vector<WeightedRow>& rows, double min_esup,
                  std::vector<Item>& suffix,
                  std::vector<ExpectedSupportEntry>* out) {
  const WeightedFpTree tree(rows);
  for (const WeightedFpTree::HeaderEntry& entry : tree.header()) {
    if (entry.total_weight < min_esup) continue;
    suffix.push_back(entry.item);
    out->push_back(
        ExpectedSupportEntry{Itemset(suffix), entry.total_weight});

    std::vector<WeightedRow> base = tree.ConditionalPatternBase(entry.item);
    if (!base.empty()) {
      Item max_item_plus_one = 0;
      for (const auto& row : base) {
        for (Item item : row.items) {
          max_item_plus_one = std::max(max_item_plus_one, item + 1);
        }
      }
      std::vector<double> weights(max_item_plus_one, 0.0);
      for (const auto& row : base) {
        for (Item item : row.items) weights[item] += row.weight;
      }
      std::vector<WeightedRow> filtered;
      filtered.reserve(base.size());
      for (auto& row : base) {
        WeightedRow kept;
        kept.weight = row.weight;
        for (Item item : row.items) {
          if (weights[item] >= min_esup) kept.items.push_back(item);
        }
        if (!kept.items.empty()) filtered.push_back(std::move(kept));
      }
      if (!filtered.empty()) WeightedGrow(filtered, min_esup, suffix, out);
    }
    suffix.pop_back();
  }
}

}  // namespace

namespace internal {

std::vector<ExpectedSupportEntry> MineExpectedSupportFpGrowth(
    const UncertainDatabase& db, double min_esup) {
  PFCI_CHECK(min_esup > 0.0);
  // Global expected supports; order items by descending esup for compact
  // trees (the classic FP-growth heuristic, weighted).
  std::vector<double> esup(db.MaxItemPlusOne(), 0.0);
  for (const auto& t : db.transactions()) {
    for (Item item : t.items.items()) esup[item] += t.prob;
  }
  std::vector<Item> frequent_items;
  for (Item item = 0; item < esup.size(); ++item) {
    if (esup[item] >= min_esup) frequent_items.push_back(item);
  }
  std::sort(frequent_items.begin(), frequent_items.end(),
            [&](Item a, Item b) {
              if (esup[a] != esup[b]) return esup[a] > esup[b];
              return a < b;
            });
  std::vector<std::size_t> rank(esup.size(), 0);
  std::vector<bool> is_frequent(esup.size(), false);
  for (std::size_t r = 0; r < frequent_items.size(); ++r) {
    rank[frequent_items[r]] = r;
    is_frequent[frequent_items[r]] = true;
  }

  std::vector<WeightedRow> rows;
  rows.reserve(db.size());
  for (const auto& t : db.transactions()) {
    WeightedRow row;
    row.weight = t.prob;
    for (Item item : t.items.items()) {
      if (is_frequent[item]) row.items.push_back(item);
    }
    if (row.items.empty()) continue;
    std::sort(row.items.begin(), row.items.end(),
              [&](Item a, Item b) { return rank[a] < rank[b]; });
    rows.push_back(std::move(row));
  }

  std::vector<ExpectedSupportEntry> result;
  std::vector<Item> suffix;
  WeightedGrow(rows, min_esup, suffix, &result);
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace internal

std::vector<ExpectedSupportEntry> MineExpectedSupport(
    const UncertainDatabase& db, double min_esup, MiningStats* stats,
    TidSetMode tidset_mode, const ExecutionContext* exec) {
  PFCI_CHECK(min_esup > 0.0);
  // The evaluator only serves expected supports here, which no support
  // threshold enters: min_sup 1 is a placeholder.
  return RunFlatEnumeration(
      db, tidset_mode, /*min_sup=*/1, stats, exec,
      [&](const VerticalIndex& index, const FrequentProbability& freq,
          RunController& rt) {
        const FrequentnessMeasure<TidSet> esup_at_least =
            [&](const TidSet& tids,
                MiningStats* counters) -> std::optional<double> {
          const double esup = freq.ExpectedSupport(tids);
          if (esup >= min_esup) return esup;
          if (counters != nullptr) ++counters->pruned_by_frequency;
          return std::nullopt;
        };
        std::vector<ExpectedSupportEntry> result;
        EnumerateFrequent(
            index, esup_at_least, "esup/node", stats, rt,
            [&result](const Itemset& items, const TidSet&, double esup) {
              result.push_back(ExpectedSupportEntry{items, esup});
            });
        std::sort(result.begin(), result.end());
        return result;
      });
}

}  // namespace pfci
