// Cross-model consistency: the Poisson-binomial machinery, the possible-
// world semantics, and the vertical index must all describe the same
// probability space. These tests tie the three layers together:
//   * the support pmf derived by world enumeration equals
//     PoissonBinomialPmf over the tid-list probabilities;
//   * expected supports equal both the pmf mean and the world-sum;
//   * the vertical index agrees with brute-force subset scans.
#include <gtest/gtest.h>

#include "src/data/vertical_index.h"
#include "src/data/world_enumerator.h"
#include "src/harness/dataset_factory.h"
#include "src/prob/poisson_binomial.h"
#include "src/util/random.h"

namespace pfci {
namespace {

UncertainDatabase RandomDb(Rng& rng, std::size_t n, std::size_t items,
                           double density) {
  UncertainDatabase db;
  for (std::size_t t = 0; t < n; ++t) {
    std::vector<Item> row;
    for (Item i = 0; i < items; ++i) {
      if (rng.NextBernoulli(density)) row.push_back(i);
    }
    if (row.empty()) row.push_back(static_cast<Item>(rng.NextBelow(items)));
    db.Add(Itemset(std::move(row)), 0.05 + 0.95 * rng.NextDouble());
  }
  return db;
}

class DistributionConsistency : public ::testing::TestWithParam<int> {};

TEST_P(DistributionConsistency, SupportPmfMatchesWorldEnumeration) {
  Rng rng(GetParam() * 101 + 3);
  const UncertainDatabase db = RandomDb(rng, 8, 4, 0.5);
  const VerticalIndex index(db);

  for (const Itemset& x :
       {Itemset{0}, Itemset{1, 2}, Itemset{0, 3}, Itemset{0, 1, 2, 3}}) {
    const TidSet tids = index.TidsOf(x);
    const std::vector<double> pmf =
        PoissonBinomialPmf(index.ProbsOf(tids));

    // Distribution of support(X) over explicit worlds.
    std::vector<double> world_pmf(db.size() + 1, 0.0);
    EnumerateWorlds(db, [&](const PossibleWorld& world, double prob) {
      world_pmf[world.Support(db, x)] += prob;
    });

    for (std::size_t s = 0; s <= db.size(); ++s) {
      const double expected = s < pmf.size() ? pmf[s] : 0.0;
      EXPECT_NEAR(world_pmf[s], expected, 1e-12)
          << x.ToString() << " s=" << s;
    }
  }
}

TEST_P(DistributionConsistency, ExpectedSupportThreeWays) {
  Rng rng(GetParam() * 211 + 5);
  const UncertainDatabase db = RandomDb(rng, 9, 4, 0.55);
  const VerticalIndex index(db);
  const Itemset x{0, 1};
  const TidSet tids = index.TidsOf(x);

  // 1. Direct sum of probabilities.
  const double direct = db.ExpectedSupport(x);
  // 2. Mean of the Poisson-binomial.
  const double via_pmf = PoissonBinomialMean(index.ProbsOf(tids));
  // 3. World-sum of support * probability.
  double via_worlds = 0.0;
  EnumerateWorlds(db, [&](const PossibleWorld& world, double prob) {
    via_worlds += static_cast<double>(world.Support(db, x)) * prob;
  });

  EXPECT_NEAR(direct, via_pmf, 1e-12);
  EXPECT_NEAR(direct, via_worlds, 1e-12);
}

TEST_P(DistributionConsistency, VerticalIndexMatchesSubsetScan) {
  Rng rng(GetParam() * 307 + 7);
  const UncertainDatabase db = RandomDb(rng, 12, 5, 0.5);
  const VerticalIndex index(db);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<Item> items;
    for (Item i = 0; i < 5; ++i) {
      if (rng.NextBernoulli(0.5)) items.push_back(i);
    }
    const Itemset x(items);
    // Brute-force tid-list.
    TidList expected;
    for (Tid tid = 0; tid < db.size(); ++tid) {
      if (x.IsSubsetOf(db.transaction(tid).items)) expected.push_back(tid);
    }
    EXPECT_EQ(index.TidsOf(x), expected) << x.ToString();
    EXPECT_EQ(index.TidsOf(x).size(), db.Count(x)) << x.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributionConsistency,
                         ::testing::Range(0, 15));

TEST(NumericalStability, LargePmfStillSumsToOne) {
  Rng rng(515);
  std::vector<double> probs(3000);
  for (double& p : probs) p = rng.NextDouble();
  const std::vector<double> pmf = PoissonBinomialPmf(probs);
  double total = 0.0;
  for (double mass : pmf) {
    EXPECT_GE(mass, -1e-15);
    total += mass;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(NumericalStability, TailConsistentAtScale) {
  Rng rng(516);
  std::vector<double> probs(2500);
  for (double& p : probs) p = rng.NextDouble();
  // Tail + complement computed on disjoint halves of the pmf agree.
  const std::size_t threshold = 1250;
  const double tail = PoissonBinomialTailAtLeast(probs, threshold);
  const std::vector<double> pmf = PoissonBinomialPmf(probs);
  double suffix = 0.0;
  for (std::size_t s = threshold; s < pmf.size(); ++s) suffix += pmf[s];
  EXPECT_NEAR(tail, suffix, 1e-9);
  EXPECT_GE(tail, 0.0);
  EXPECT_LE(tail, 1.0);
}

TEST(NumericalStability, ExtremeProbabilitiesInTail) {
  // Mixtures of near-0, near-1 and exact-0/1 probabilities.
  std::vector<double> probs = {1.0, 1.0, 0.0, 1e-300, 1.0 - 1e-16, 0.5};
  const double tail2 = PoissonBinomialTailAtLeast(probs, 2);
  EXPECT_NEAR(tail2, 1.0, 1e-12);  // Two certain transactions.
  const double tail6 = PoissonBinomialTailAtLeast(probs, 6);
  EXPECT_NEAR(tail6, 0.0, 1e-12);  // Needs the exact-0 one.
  const double tail4 = PoissonBinomialTailAtLeast(probs, 4);
  // Requires the 0.5 and the 1-1e-16 (and possibly the 1e-300).
  EXPECT_NEAR(tail4, 0.5, 1e-10);
}

}  // namespace
}  // namespace pfci
