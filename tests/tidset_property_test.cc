// Randomized cross-validation of the TidSet algebra against the plain
// sorted-vector reference (tests/tidlist_reference.h) over seeded random
// universes: sparse, dense, and densities straddling the adaptive
// threshold, in every representation pairing. The a \ b walk is checked
// against the reference difference, including a stop after every prefix.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "src/data/tidset.h"
#include "src/util/random.h"
#include "tests/tidlist_reference.h"

namespace pfci {
namespace {

TidList RandomTids(std::size_t universe, double density, Rng& rng) {
  TidList tids;
  for (Tid t = 0; t < universe; ++t) {
    if (rng.NextBernoulli(density)) tids.push_back(t);
  }
  return tids;
}

constexpr TidSetMode kModes[] = {TidSetMode::kAdaptive, TidSetMode::kSparse,
                                 TidSetMode::kDense};

/// Walks a \ b, asking to stop after `stop_after` members (never when 0);
/// returns the members seen and stores the walk's result in `*completed`.
TidList WalkDifference(const TidSet& a, const TidSet& b,
                       std::size_t stop_after, bool* completed) {
  TidList seen;
  *completed = ForEachInDifference(a, b, [&](Tid tid) {
    seen.push_back(tid);
    return seen.size() != stop_after;
  });
  return seen;
}

/// The a \ b walk stopped after every prefix length 1..|a \ b|, and run
/// to the end, in all nine representation pairings.
void CheckDifferencePrefixes(const TidList& a_tids, const TidList& b_tids,
                             std::size_t universe) {
  const TidList ref_diff = DifferenceTids(a_tids, b_tids);
  for (const TidSetMode ma : kModes) {
    const TidSet a(a_tids, universe, ma);
    for (const TidSetMode mb : kModes) {
      SCOPED_TRACE(std::string(TidSetModeName(ma)) + " x " +
                   TidSetModeName(mb) + " |a|=" +
                   std::to_string(a_tids.size()) + " |b|=" +
                   std::to_string(b_tids.size()));
      const TidSet b(b_tids, universe, mb);
      bool completed = false;
      EXPECT_EQ(WalkDifference(a, b, 0, &completed), ref_diff);
      EXPECT_TRUE(completed);
      for (std::size_t k = 1; k <= ref_diff.size(); ++k) {
        const TidList seen = WalkDifference(a, b, k, &completed);
        ASSERT_EQ(seen, TidList(ref_diff.begin(), ref_diff.begin() + k))
            << "stop after " << k;
        EXPECT_FALSE(completed);
      }
    }
  }
}

/// Checks every TidSet operation of (a, b) against the vector reference,
/// in all nine representation pairings.
void CrossValidate(const TidList& a_tids, const TidList& b_tids,
                   std::size_t universe) {
  const TidList ref_inter = IntersectTids(a_tids, b_tids);
  const TidList ref_diff = DifferenceTids(a_tids, b_tids);
  const bool ref_subset = TidsSubset(a_tids, b_tids);
  for (const TidSetMode ma : kModes) {
    const TidSet a(a_tids, universe, ma);
    ASSERT_EQ(a, a_tids) << "construction roundtrip";
    ASSERT_EQ(a.size(), a_tids.size());
    for (const TidSetMode mb : kModes) {
      SCOPED_TRACE(std::string(TidSetModeName(ma)) + " x " +
                   TidSetModeName(mb) + " universe=" +
                   std::to_string(universe) + " |a|=" +
                   std::to_string(a_tids.size()) + " |b|=" +
                   std::to_string(b_tids.size()));
      const TidSet b(b_tids, universe, mb);
      EXPECT_EQ(Intersect(a, b), ref_inter);
      EXPECT_EQ(IntersectSize(a, b), ref_inter.size());
      bool completed = false;
      EXPECT_EQ(WalkDifference(a, b, 0, &completed), ref_diff);
      EXPECT_TRUE(completed);
      EXPECT_EQ(IsSubsetOf(a, b), ref_subset);
      EXPECT_EQ(a == b, a_tids == b_tids);
    }
  }
}

TEST(TidSetProperty, RandomPairsAcrossDensitiesAndUniverses) {
  // Densities: very sparse, around the 1/16 adaptive boundary, dense,
  // near-full. Universes include a sub-word one, a non-multiple of 64,
  // and larger power/non-power sizes.
  const std::size_t universes[] = {64, 257, 1024, 4096};
  const double densities[] = {0.005, 0.05, 1.0 / 16.0, 0.08, 0.5, 0.95};
  Rng rng(20260806);
  for (const std::size_t universe : universes) {
    for (const double da : densities) {
      for (const double db : densities) {
        CrossValidate(RandomTids(universe, da, rng),
                      RandomTids(universe, db, rng), universe);
      }
    }
  }
}

TEST(TidSetProperty, NestedAndDisjointPairs) {
  Rng rng(99);
  const std::size_t universe = 2048;
  for (int round = 0; round < 8; ++round) {
    const TidList b = RandomTids(universe, 0.3, rng);
    // a ⊂ b: thin out b.
    TidList a;
    for (Tid t : b) {
      if (rng.NextBernoulli(0.4)) a.push_back(t);
    }
    CrossValidate(a, b, universe);
    // Disjoint: the complement-sampled side.
    TidList c;
    for (Tid t = 0; t < universe; ++t) {
      if (!TidsSubset({t}, b) && rng.NextBernoulli(0.2)) c.push_back(t);
    }
    CrossValidate(c, b, universe);
    // Self and empty.
    CrossValidate(b, b, universe);
    CrossValidate(TidList{}, b, universe);
    CrossValidate(b, TidList{}, universe);
  }
}

TEST(TidSetProperty, HeavySkewTriggersGalloping) {
  // One side >= 32x shorter: exercises the galloping sparse kernels
  // through the public API against the same reference.
  Rng rng(7);
  const std::size_t universe = 1 << 15;
  const TidList big = RandomTids(universe, 0.5, rng);
  for (int round = 0; round < 6; ++round) {
    const TidList small = RandomTids(universe, 0.003, rng);
    ASSERT_LE(small.size() * 32, big.size());
    CrossValidate(small, big, universe);
    CrossValidate(big, small, universe);
  }
}

TEST(TidSetProperty, DifferenceWalkStopsAfterEveryPrefix) {
  // Sparse, dense, mixed, nested, empty and galloping-skew pairs. Universe
  // 1000 is not a multiple of 64, so the last bitmap word is partial.
  Rng rng(20261018);
  const std::size_t universe = 1000;
  const double densities[] = {0.01, 0.05, 0.3, 0.9};
  for (const double da : densities) {
    for (const double db : densities) {
      const TidList a = RandomTids(universe, da, rng);
      const TidList b = RandomTids(universe, db, rng);
      CheckDifferencePrefixes(a, b, universe);
      CheckDifferencePrefixes(a, IntersectTids(a, b), universe);
    }
  }
  const TidList some = RandomTids(universe, 0.2, rng);
  CheckDifferencePrefixes(some, TidList{}, universe);
  CheckDifferencePrefixes(TidList{}, some, universe);
  CheckDifferencePrefixes(TidList{}, TidList{}, universe);
  CheckDifferencePrefixes(some, some, universe);
  // A default-constructed (universe 0) empty subtrahend is accepted.
  bool completed = false;
  EXPECT_EQ(WalkDifference(TidSet(some, universe, TidSetMode::kDense),
                           TidSet(), 0, &completed),
            some);
  EXPECT_TRUE(completed);

  // Galloping: a sparse `a` at least 32x shorter than a sparse `b`.
  const std::size_t big_universe = 1 << 15;
  const TidList big = RandomTids(big_universe, 0.5, rng);
  for (int round = 0; round < 4; ++round) {
    const TidList small = RandomTids(big_universe, 0.003, rng);
    ASSERT_LE(small.size() * 32, big.size());
    CheckDifferencePrefixes(small, big, big_universe);
  }
}

TEST(TidSetProperty, CountMatchesPopcountAcrossBoundaries) {
  // Sizes around word boundaries: the dense popcount bookkeeping must
  // agree with the vector size everywhere.
  for (const std::size_t universe : {63u, 64u, 65u, 127u, 128u, 129u}) {
    Rng rng(universe);
    for (int round = 0; round < 4; ++round) {
      const TidList tids = RandomTids(universe, 0.6, rng);
      const TidSet dense(tids, universe, TidSetMode::kDense);
      const TidSet sparse(tids, universe, TidSetMode::kSparse);
      EXPECT_EQ(dense.size(), tids.size());
      EXPECT_EQ(dense.ToTidList(), tids);
      EXPECT_EQ(dense, sparse);
      EXPECT_EQ(IntersectSize(dense, sparse), tids.size());
    }
  }
}

}  // namespace
}  // namespace pfci
