// Unit and property tests for the exact-mining substrate: FP-growth,
// closed-itemset mining, Apriori, and their mutual consistency.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/exact/apriori.h"
#include "src/exact/closed_miner.h"
#include "src/exact/fp_growth.h"
#include "src/exact/fp_tree.h"
#include "src/exact/transaction_database.h"
#include "src/util/random.h"

namespace pfci {
namespace {

TransactionDatabase ClassicBasketDb() {
  // The canonical FP-growth example (Han et al.), items remapped to ids:
  // f=0 c=1 a=2 b=3 m=4 p=5 i=6 o=7 ...
  TransactionDatabase db;
  db.Add(Itemset{0, 1, 2, 4, 5});     // f c a m p
  db.Add(Itemset{0, 1, 2, 3, 4});     // f c a b m
  db.Add(Itemset{0, 3});              // f b
  db.Add(Itemset{1, 3, 5});           // c b p
  db.Add(Itemset{0, 1, 2, 4, 5});     // f c a m p
  return db;
}

TransactionDatabase RandomDb(Rng& rng, std::size_t n, std::size_t items,
                             double density) {
  TransactionDatabase db;
  for (std::size_t t = 0; t < n; ++t) {
    std::vector<Item> row;
    for (Item i = 0; i < items; ++i) {
      if (rng.NextBernoulli(density)) row.push_back(i);
    }
    db.Add(Itemset(std::move(row)));
  }
  return db;
}

TEST(TransactionDatabase, SupportAndUniverse) {
  const TransactionDatabase db = ClassicBasketDb();
  EXPECT_EQ(db.Support(Itemset{0, 1}), 3u);
  EXPECT_EQ(db.Support(Itemset{5}), 3u);
  EXPECT_EQ(db.Support(Itemset{9}), 0u);
  EXPECT_EQ(db.ItemUniverse(), (std::vector<Item>{0, 1, 2, 3, 4, 5}));
}

TEST(FpTree, HeaderCountsAndPatternBase) {
  std::vector<FpRow<std::size_t>> rows;
  rows.push_back({{0, 1, 2}, 2});
  rows.push_back({{0, 2}, 1});
  rows.push_back({{1, 2}, 3});
  const FpTree<std::size_t> tree(rows);
  // Total counts: item0=3, item1=5, item2=6.
  for (const auto& entry : tree.header()) {
    if (entry.item == 0) {
      EXPECT_EQ(entry.total_weight, 3u);
    }
    if (entry.item == 1) {
      EXPECT_EQ(entry.total_weight, 5u);
    }
    if (entry.item == 2) {
      EXPECT_EQ(entry.total_weight, 6u);
    }
  }
  // Conditional pattern base of item 2: prefixes {0,1}x2, {0}x1, {1}x3.
  const auto base = tree.ConditionalPatternBase(2);
  std::size_t total = 0;
  for (const auto& row : base) total += row.weight;
  EXPECT_EQ(total, 6u);
}

TEST(FpGrowth, ClassicExample) {
  const TransactionDatabase db = ClassicBasketDb();
  const auto frequent = MineFrequentItemsets(db, 3);
  // With min_sup=3 the frequent items are f,c,a,b,m,p and e.g. {f,c,a,m}
  // has support 3.
  const auto find = [&frequent](const Itemset& x) -> const SupportedItemset* {
    for (const auto& entry : frequent) {
      if (entry.items == x) return &entry;
    }
    return nullptr;
  };
  ASSERT_NE(find(Itemset{0}), nullptr);
  EXPECT_EQ(find(Itemset{0})->support, 4u);
  ASSERT_NE(find(Itemset{0, 1, 2, 4}), nullptr);
  EXPECT_EQ(find(Itemset{0, 1, 2, 4})->support, 3u);
  EXPECT_EQ(find(Itemset{3, 5}), nullptr);  // b,p co-occur only once.
}

TEST(FpGrowth, MinSupOneEnumeratesEverything) {
  TransactionDatabase db;
  db.Add(Itemset{0, 1});
  db.Add(Itemset{1, 2});
  const auto frequent = MineFrequentItemsets(db, 1);
  // Non-empty subsets of {0,1} plus of {1,2}: {0},{1},{2},{01},{12}.
  EXPECT_EQ(frequent.size(), 5u);
}

TEST(FpGrowth, EmptyAndUnsatisfiable) {
  TransactionDatabase db;
  EXPECT_TRUE(MineFrequentItemsets(db, 1).empty());
  db.Add(Itemset{0});
  EXPECT_TRUE(MineFrequentItemsets(db, 2).empty());
}

TEST(FpGrowth, AnswersAreStable) {
  // Pinned answer of FP-growth on a seeded random database: any change to
  // the tree or the growth loop that moves an itemset or a support shows
  // up here. FNV-1a over the sorted itemsets and their supports.
  Rng rng(20120402);
  const TransactionDatabase db = RandomDb(rng, 300, 12, 0.3);
  const auto frequent = MineFrequentItemsets(db, 8);
  std::uint64_t hash = 14695981039346656037ULL;
  auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xffULL;
      hash *= 1099511628211ULL;
    }
  };
  mix(frequent.size());
  for (const SupportedItemset& entry : frequent) {
    mix(entry.items.size());
    for (Item item : entry.items.items()) mix(item);
    mix(entry.support);
  }
  EXPECT_EQ(frequent.size(), 184u);
  EXPECT_EQ(hash, 0x965119aa911fa029ULL);
}

TEST(Apriori, CandidateGeneration) {
  const std::vector<Itemset> frequent2 = {Itemset{0, 1}, Itemset{0, 2},
                                          Itemset{1, 2}, Itemset{1, 3}};
  const auto candidates = AprioriGenCandidates(frequent2);
  // {0,1,2} has all 2-subsets frequent; {1,2,3} lacks {2,3}.
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], (Itemset{0, 1, 2}));
}

TEST(ClosedMiner, ClassicExample) {
  const TransactionDatabase db = ClassicBasketDb();
  const auto closed = MineClosedItemsets(db, 3);
  const auto brute = MineClosedItemsetsBruteForce(db, 3);
  EXPECT_EQ(closed, brute);
  // {f,c,a,m} support 3 is closed; {f,c,a} support 3 is NOT (m extends it
  // with equal support).
  bool has_fcam = false, has_fca = false;
  for (const auto& entry : closed) {
    if (entry.items == Itemset({0, 1, 2, 4})) has_fcam = true;
    if (entry.items == Itemset({0, 1, 2})) has_fca = true;
  }
  EXPECT_TRUE(has_fcam);
  EXPECT_FALSE(has_fca);
}

class ExactMinersAgree : public ::testing::TestWithParam<int> {};

TEST_P(ExactMinersAgree, FpGrowthMatchesApriori) {
  Rng rng(GetParam() * 13 + 1);
  const TransactionDatabase db = RandomDb(rng, 12, 6, 0.45);
  for (std::size_t min_sup : {1, 2, 3, 5}) {
    EXPECT_EQ(MineFrequentItemsets(db, min_sup), AprioriMine(db, min_sup))
        << "min_sup=" << min_sup;
  }
}

TEST_P(ExactMinersAgree, ClosedMinerMatchesBruteForce) {
  Rng rng(GetParam() * 29 + 2);
  const TransactionDatabase db = RandomDb(rng, 12, 6, 0.5);
  for (std::size_t min_sup : {1, 2, 4}) {
    EXPECT_EQ(MineClosedItemsets(db, min_sup),
              MineClosedItemsetsBruteForce(db, min_sup))
        << "min_sup=" << min_sup;
  }
}

TEST_P(ExactMinersAgree, ClosedSupportsMatchAndCompress) {
  Rng rng(GetParam() * 41 + 3);
  const TransactionDatabase db = RandomDb(rng, 14, 7, 0.5);
  const auto closed = MineClosedItemsets(db, 2);
  const auto frequent = MineFrequentItemsets(db, 2);
  EXPECT_LE(closed.size(), frequent.size());
  for (const auto& entry : closed) {
    EXPECT_EQ(db.Support(entry.items), entry.support);
  }
  // Every frequent itemset's support is witnessed by some closed superset
  // with the same support (the closure property).
  for (const auto& f : frequent) {
    bool witnessed = false;
    for (const auto& c : closed) {
      if (c.support == f.support && f.items.IsSubsetOf(c.items)) {
        witnessed = true;
        break;
      }
    }
    EXPECT_TRUE(witnessed) << f.items.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDatabases, ExactMinersAgree,
                         ::testing::Range(0, 20));

TEST(ClosedMiner, FromWorldProjection) {
  // Closed mining over a possible-world projection of the paper example.
  UncertainDatabase udb;
  udb.Add(Itemset{0, 1, 2, 3}, 0.9);
  udb.Add(Itemset{0, 1, 2}, 0.6);
  PossibleWorld world(2);
  world.SetPresent(0, true);
  world.SetPresent(1, true);
  const TransactionDatabase db = TransactionDatabase::FromWorld(udb, world);
  const auto closed = MineClosedItemsets(db, 1);
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].items, (Itemset{0, 1, 2}));
  EXPECT_EQ(closed[0].support, 2u);
  EXPECT_EQ(closed[1].items, (Itemset{0, 1, 2, 3}));
  EXPECT_EQ(closed[1].support, 1u);
}

}  // namespace
}  // namespace pfci
