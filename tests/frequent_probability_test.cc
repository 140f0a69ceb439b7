// Unit tests for the frequent-probability evaluator (Definition 3.4).
#include "src/core/frequent_probability.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/eval_cache.h"
#include "src/data/vertical_index.h"
#include "src/harness/dataset_factory.h"
#include "src/util/random.h"

namespace pfci {
namespace {

TEST(FrequentProbability, PaperExampleValues) {
  const UncertainDatabase db = MakePaperExampleDb();
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 2);
  // PrF(abc) over (.9,.6,.7,.9) at min_sup 2.
  EXPECT_NEAR(freq.PrF(index.TidsOf(Itemset{0, 1, 2})), 0.9726, 1e-12);
  // PrF(abcd) = .9 * .9.
  EXPECT_NEAR(freq.PrF(index.TidsOf(Itemset{0, 1, 2, 3})), 0.81, 1e-12);
}

TEST(FrequentProbability, ShortTidListIsZero) {
  const UncertainDatabase db = MakePaperExampleDb();
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 3);
  EXPECT_DOUBLE_EQ(freq.PrF(index.TidsOf(Itemset{3})), 0.0);  // Count 2 < 3.
}

TEST(FrequentProbability, UpperBoundDominates) {
  const UncertainDatabase db = MakePaperExampleDb();
  const VerticalIndex index(db);
  for (std::size_t min_sup : {1, 2, 3, 4}) {
    const FrequentProbability freq(index, min_sup);
    for (const Itemset& x :
         {Itemset{0}, Itemset{3}, Itemset{0, 1, 2}, Itemset{0, 3}}) {
      const TidSet tids = index.TidsOf(x);
      EXPECT_GE(freq.PrFUpperBound(tids) + 1e-12, freq.PrF(tids))
          << x.ToString() << " min_sup=" << min_sup;
    }
  }
}

TEST(FrequentProbability, ShortCircuitsMatchExactAtScale) {
  // Build a database large enough to trigger the Chernoff short circuits
  // and verify PrF still answers 0/1 correctly.
  UncertainDatabase db;
  for (int i = 0; i < 400; ++i) db.Add(Itemset{0}, 0.9);
  const VerticalIndex index(db);
  {
    // Expected support 360 >> 100: PrF ~ 1 via short circuit.
    const FrequentProbability freq(index, 100);
    EXPECT_DOUBLE_EQ(freq.PrF(index.TidsOfItem(0)), 1.0);
    EXPECT_EQ(freq.dp_runs(), 0u);  // Short circuit, no DP.
  }
  {
    // Threshold 399 is nearly impossible: PrF ~ 0.
    const FrequentProbability freq(index, 399);
    EXPECT_LT(freq.PrF(index.TidsOfItem(0)), 1e-10);
  }
}

TEST(FrequentProbability, AntiMonotoneInItemset) {
  Rng rng(5150);
  UncertainDatabase db;
  for (int t = 0; t < 10; ++t) {
    std::vector<Item> items;
    for (Item i = 0; i < 5; ++i) {
      if (rng.NextBernoulli(0.6)) items.push_back(i);
    }
    if (items.empty()) items.push_back(0);
    db.Add(Itemset(std::move(items)), 0.1 + 0.9 * rng.NextDouble());
  }
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 2);
  // PrF(X) >= PrF(X + e) for every X, e.
  for (Item a = 0; a < 5; ++a) {
    for (Item b = 0; b < 5; ++b) {
      if (a == b) continue;
      const double single = freq.PrF(index.TidsOf(Itemset{a}));
      const double pair = freq.PrF(index.TidsOf(Itemset{a, b}));
      EXPECT_LE(pair, single + 1e-12) << a << "," << b;
    }
  }
}

TEST(FrequentProbability, MatchesBruteForceOnRandomDb) {
  Rng rng(31337);
  UncertainDatabase db;
  for (int t = 0; t < 9; ++t) {
    std::vector<Item> items;
    for (Item i = 0; i < 4; ++i) {
      if (rng.NextBernoulli(0.5)) items.push_back(i);
    }
    if (items.empty()) items.push_back(0);
    db.Add(Itemset(std::move(items)), 0.05 + 0.95 * rng.NextDouble());
  }
  const VerticalIndex index(db);
  for (std::size_t min_sup : {1, 2, 4}) {
    const FrequentProbability freq(index, min_sup);
    for (const Itemset& x : {Itemset{0}, Itemset{1, 2}, Itemset{0, 3},
                             Itemset{0, 1, 2, 3}}) {
      const WorldProbabilities truth =
          BruteForceItemsetProbabilities(db, x, min_sup);
      EXPECT_NEAR(freq.PrF(index.TidsOf(x)), truth.pr_f, 1e-9)
          << x.ToString() << " min_sup=" << min_sup;
    }
  }
}

TEST(FrequentProbability, CacheTiersPinValuesAndCounters) {
  // Four disjoint 200-transaction tid-sets, each steering the cached
  // evaluation down one tier: item 0 (mu = 120) always needs the DP,
  // items 1 and 2 (p = .9, mu = 180) short-circuit to 1 at min_sup 60,
  // item 3 (p = .1, mu = 20) short-circuits to 0 at min_sup 80.
  UncertainDatabase db;
  for (int k = 0; k < 200; ++k) db.Add(Itemset{0}, 0.3 + 0.6 * (k % 10) / 9.0);
  for (int k = 0; k < 200; ++k) db.Add(Itemset{1}, 0.9);
  for (int k = 0; k < 200; ++k) db.Add(Itemset{2}, 0.9);
  for (int k = 0; k < 200; ++k) db.Add(Itemset{3}, 0.1);
  const VerticalIndex index(db);
  EvalCache cache(EvalCache::Options{});

  struct Step {
    const char* what;
    Item item;
    std::size_t min_sup;
    std::size_t table_floor;
    double value;  // Exact short-circuit answer, or -1 for a DP value.
    std::uint64_t dp_runs, cache_hits, cache_misses, dp_reused;
    std::uint64_t entries, bytes;
  };
  const Step steps[] = {
      {"miss, table to the floor", 0, 120, 130, -1, 1, 0, 1, 0, 1, 1976},
      {"table hit", 0, 125, 130, -1, 0, 1, 0, 1, 1, 1976},
      {"truncated table upgrade", 0, 140, 130, -1, 1, 0, 1, 0, 1, 2056},
      {"upper short circuit, mu-only insert", 3, 80, 130, 0.0, 0, 0, 1, 0, 2,
       2992},
      {"upper short-circuit replay", 3, 80, 0, 0.0, 0, 1, 0, 0, 2, 2992},
      {"lower short circuit, floor prefill", 1, 60, 150, 1.0, 1, 0, 1, 0, 3,
       5128},
      {"prefilled table hit", 1, 150, 150, -1, 0, 1, 0, 1, 3, 5128},
      {"lower short circuit, floor short-circuits too", 2, 60, 65, 1.0, 0, 0,
       1, 0, 4, 6064},
      {"lower short-circuit replay", 2, 60, 0, 1.0, 0, 1, 0, 0, 4, 6064},
  };
  for (const Step& step : steps) {
    SCOPED_TRACE(step.what);
    const TidSet tids = index.TidsOfItem(step.item);
    const FrequentProbability cached(index, step.min_sup, &cache,
                                     step.table_floor);
    const FrequentProbability direct(index, step.min_sup);
    const double got = cached.PrF(tids);
    const double want = direct.PrF(tids);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want));
    if (step.value >= 0.0) {
      EXPECT_EQ(got, step.value);
    } else {
      EXPECT_EQ(direct.dp_runs(), 1u);
    }
    EXPECT_EQ(cached.dp_runs(), step.dp_runs);
    EXPECT_EQ(cached.cache_hits(), step.cache_hits);
    EXPECT_EQ(cached.cache_misses(), step.cache_misses);
    EXPECT_EQ(cached.dp_reused(), step.dp_reused);
    EXPECT_EQ(cache.entries(), step.entries);
    EXPECT_EQ(cache.bytes(), step.bytes);
  }
  EXPECT_EQ(cache.evictions(), 0u);
}

}  // namespace
}  // namespace pfci
