// Randomized cross-validation of the TidSet algebra against the plain
// sorted-vector reference (tests/tidlist_reference.h) over seeded random
// universes: sparse, dense, and densities straddling the adaptive
// threshold, in every representation pairing. The a \ b walk is checked
// against the reference difference, including a stop after every prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
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
      const TidSet inter = Intersect(a, b);
      EXPECT_EQ(inter, ref_inter);
      EXPECT_EQ(IntersectSize(a, b), ref_inter.size());
      // With the count known: the same set in the same representation.
      const TidSet known = Intersect(a, b, ref_inter.size());
      EXPECT_EQ(known, ref_inter);
      EXPECT_EQ(known.dense(), inter.dense());
      bool completed = false;
      EXPECT_EQ(WalkDifference(a, b, 0, &completed), ref_diff);
      EXPECT_TRUE(completed);
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

/// The (word index, bits) sequence of ForEachWord.
std::vector<std::pair<std::size_t, std::uint64_t>> Words(const TidSet& set) {
  std::vector<std::pair<std::size_t, std::uint64_t>> words;
  set.ForEachWord([&words](std::size_t w, std::uint64_t bits) {
    words.emplace_back(w, bits);
  });
  return words;
}

TEST(TidSetProperty, WordWalkIsRepresentationIndependent) {
  // The reference image: the non-zero words of the bitmap built from
  // the tid list by hand, ascending.
  const std::size_t universes[] = {1, 63, 64, 65, 300, 1024, 8124};
  const double densities[] = {0.0, 0.005, 0.05, 0.5, 1.0};
  Rng rng(20261020);
  for (const std::size_t universe : universes) {
    for (const double density : densities) {
      const TidList tids = RandomTids(universe, density, rng);
      std::vector<std::uint64_t> bitmap((universe + 63) / 64, 0);
      for (const Tid t : tids) bitmap[t / 64] |= std::uint64_t{1} << (t % 64);
      std::vector<std::pair<std::size_t, std::uint64_t>> want;
      for (std::size_t w = 0; w < bitmap.size(); ++w) {
        if (bitmap[w] != 0) want.emplace_back(w, bitmap[w]);
      }
      for (const TidSetMode mode : kModes) {
        SCOPED_TRACE(std::string(TidSetModeName(mode)) + " universe=" +
                     std::to_string(universe) + " |tids|=" +
                     std::to_string(tids.size()));
        EXPECT_EQ(Words(TidSet(tids, universe, mode)), want);
      }
    }
  }
}

TEST(TidSetProperty, EqualSizeSetsCompareByContentInEveryPairing) {
  // Equal sizes defeat the size check, so equality must look at the
  // members: the same contents, one tid moved across a word boundary,
  // and one tid moved within a word, in all nine pairings.
  Rng rng(7);
  for (const std::size_t universe : {300u, 4096u}) {
    for (const double density : {0.02, 0.3}) {
      const TidList base = RandomTids(universe, density, rng);
      ASSERT_FALSE(base.empty());
      TidList across = base;  // Last tid moved to the universe's end.
      TidList within = base;  // First tid moved to a free bit in its word.
      if (across.back() + 1 < universe) {
        across.back() = static_cast<Tid>(universe - 1);
      } else {
        across.erase(across.begin());
        across.insert(across.begin(), 0);
      }
      for (Tid t = base.front() / 64 * 64; t < base.front() / 64 * 64 + 64;
           ++t) {
        if (t < universe && !TidsSubset({t}, base)) {
          within.front() = t;
          std::sort(within.begin(), within.end());
          break;
        }
      }
      for (const TidSetMode ma : kModes) {
        const TidSet a(base, universe, ma);
        for (const TidSetMode mb : kModes) {
          SCOPED_TRACE(std::string(TidSetModeName(ma)) + " x " +
                       TidSetModeName(mb) + " universe=" +
                       std::to_string(universe) + " density=" +
                       std::to_string(density));
          EXPECT_TRUE(a == TidSet(base, universe, mb));
          EXPECT_EQ(a == TidSet(across, universe, mb), across == base);
          EXPECT_EQ(a == TidSet(within, universe, mb), within == base);
        }
      }
    }
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
