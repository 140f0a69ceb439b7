// A Mushroom-like input on which the MPFCI DFS forks below the first
// level (DESIGN.md §7), shared by the determinism tests. The small Quest
// inputs of those tests never reach kForkMinCost, so without this input
// the fork path would go unchecked.
#ifndef PFCI_TESTS_FORK_INPUT_H_
#define PFCI_TESTS_FORK_INPUT_H_

#include <cstddef>
#include <vector>

#include "src/core/frequent_probability.h"
#include "src/core/mine.h"
#include "src/core/search/search_driver.h"
#include "src/data/vertical_index.h"
#include "src/datagen/mushroom_generator.h"
#include "src/datagen/probability_assigner.h"

namespace pfci {

inline UncertainDatabase MakeForkingDb() {
  MushroomParams mushroom;
  mushroom.num_transactions = 4000;
  mushroom.seed = 7;
  GaussianAssignerParams assign;
  assign.mean = 0.5;
  assign.spread = 0.25;
  assign.seed = 8;
  return AssignGaussianProbabilities(GenerateMushroomLike(mushroom), assign);
}

inline MiningRequest ForkingRequest() {
  MiningRequest request;
  request.params.min_sup = 450;
  request.params.pfct = 0.8;
  request.params.seed = 21;
  return request;
}

/// Whether the DFS below the first candidate forks: replays that root's
/// child loop (qualify by exact PrF, stop after the first child with the
/// root's count, as Lemma 4.3 does) and checks each qualified child's
/// cost against kForkMinCost.
inline bool FirstRootForks(const UncertainDatabase& db,
                           const MiningParams& params) {
  const VerticalIndex index(db);
  const FrequentProbability freq(index, params.min_sup);
  std::vector<Item> candidates;
  for (const Item item : index.occurring_items()) {
    if (freq.PrF(index.TidsOfItem(item)) > params.pfct) {
      candidates.push_back(item);
    }
  }
  if (candidates.empty()) return false;
  const TidSet& root = index.TidsOfItem(candidates[0]);
  for (std::size_t c = 1; c < candidates.size(); ++c) {
    const TidSet child = Intersect(root, index.TidsOfItem(candidates[c]));
    if (freq.PrF(child) > params.pfct &&
        ForksSubtree(child.size(), candidates.size() - c - 1)) {
      return true;
    }
    if (child.size() == root.size()) break;
  }
  return false;
}

}  // namespace pfci

#endif  // PFCI_TESTS_FORK_INPUT_H_
