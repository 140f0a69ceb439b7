// A seeded random item-level database, shared by the tests that drive
// the item-level Mine() overload (answers, budgets, failpoints).
#ifndef PFCI_TESTS_ITEM_LEVEL_INPUT_H_
#define PFCI_TESTS_ITEM_LEVEL_INPUT_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/data/item_uncertain_database.h"
#include "src/util/random.h"

namespace pfci {

/// `n` transactions over 12 items, each occurring with probability 0.5
/// and an existence probability drawn from [0.1, 1).
inline ItemUncertainDatabase RandomItemDb(std::size_t n,
                                          std::uint64_t seed) {
  Rng rng(seed);
  ItemUncertainDatabase db;
  while (db.size() < n) {
    std::vector<ProbItem> occurrences;
    for (Item i = 0; i < 12; ++i) {
      if (rng.NextBernoulli(0.5)) {
        occurrences.push_back(ProbItem{i, 0.1 + 0.9 * rng.NextDouble()});
      }
    }
    if (!occurrences.empty()) db.Add(std::move(occurrences));
  }
  return db;
}

}  // namespace pfci

#endif  // PFCI_TESTS_ITEM_LEVEL_INPUT_H_
