// Unit tests for the uncertain-data substrate: database, tid-lists,
// vertical index, possible worlds, enumeration, I/O, statistics.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "src/data/database_io.h"
#include "src/data/database_stats.h"
#include "src/data/possible_world.h"
#include "src/data/uncertain_database.h"
#include "src/data/vertical_index.h"
#include "src/data/world_enumerator.h"
#include "tests/tidlist_reference.h"
#include "src/harness/dataset_factory.h"

namespace pfci {
namespace {

TEST(TidListAlgebra, IntersectAndDifference) {
  const TidList a = {1, 3, 5, 7};
  const TidList b = {3, 4, 5, 8};
  EXPECT_EQ(IntersectTids(a, b), (TidList{3, 5}));
  EXPECT_EQ(IntersectTidsSize(a, b), 2u);
  EXPECT_EQ(DifferenceTids(a, b), (TidList{1, 7}));
  EXPECT_EQ(DifferenceTids(b, a), (TidList{4, 8}));
  EXPECT_TRUE(TidsSubset({3, 5}, a));
  EXPECT_FALSE(TidsSubset({3, 4}, a));
  EXPECT_TRUE(TidsSubset({}, a));
}

TEST(UncertainDatabase, BasicAccessors) {
  const UncertainDatabase db = MakePaperExampleDb();
  EXPECT_EQ(db.size(), 4u);
  EXPECT_DOUBLE_EQ(db.prob(1), 0.6);
  EXPECT_EQ(db.ItemUniverse(), (std::vector<Item>{0, 1, 2, 3}));
  EXPECT_EQ(db.MaxItemPlusOne(), 4u);
  EXPECT_EQ(db.Count(Itemset{0, 3}), 2u);          // abcd rows.
  EXPECT_EQ(db.Count(Itemset{0, 1, 2}), 4u);       // all rows.
  EXPECT_NEAR(db.ExpectedSupport(Itemset{3}), 1.8, 1e-12);
}

TEST(VerticalIndex, TidListsMatchDatabase) {
  const UncertainDatabase db = MakePaperExampleDb();
  const VerticalIndex index(db);
  EXPECT_EQ(index.TidsOfItem(0), (TidList{0, 1, 2, 3}));
  EXPECT_EQ(index.TidsOfItem(3), (TidList{0, 3}));
  EXPECT_TRUE(index.TidsOfItem(99).empty());
  EXPECT_EQ(index.TidsOf(Itemset{0, 3}), (TidList{0, 3}));
  EXPECT_EQ(index.TidsOf(Itemset{}), (TidList{0, 1, 2, 3}));
  EXPECT_EQ(index.TidsOf(Itemset{0, 1, 2}).size(), 4u);
  EXPECT_EQ(index.occurring_items(), (std::vector<Item>{0, 1, 2, 3}));
  EXPECT_EQ(index.ProbsOf(TidSet({0, 1}, db.size())),
            (std::vector<double>{0.9, 0.6}));
}

TEST(PossibleWorld, SupportAndProbability) {
  const UncertainDatabase db = MakePaperExampleDb();
  PossibleWorld world(4);
  world.SetPresent(0, true);
  world.SetPresent(2, true);
  EXPECT_EQ(world.NumPresent(), 2u);
  EXPECT_EQ(world.PresentTids(), (std::vector<Tid>{0, 2}));
  EXPECT_EQ(world.Support(db, Itemset{0, 1, 2}), 2u);
  EXPECT_EQ(world.Support(db, Itemset{3}), 1u);
  // Pr = .9 * (1-.6) * .7 * (1-.9).
  EXPECT_NEAR(world.Probability(db), 0.9 * 0.4 * 0.7 * 0.1, 1e-15);
}

TEST(PossibleWorld, ClosednessMatchesDefinition) {
  const UncertainDatabase db = MakePaperExampleDb();
  // World {T1, T2}: abc has support 2, abcd support 1 -> abc closed.
  PossibleWorld world(4);
  world.SetPresent(0, true);
  world.SetPresent(1, true);
  EXPECT_TRUE(world.IsClosed(db, Itemset{0, 1, 2}));
  EXPECT_TRUE(world.IsClosed(db, Itemset{0, 1, 2, 3}));
  EXPECT_FALSE(world.IsClosed(db, Itemset{0, 1}));  // ab -> abc same support.
  // World {T1, T4}: every transaction is abcd, so abc is NOT closed.
  PossibleWorld world2(4);
  world2.SetPresent(0, true);
  world2.SetPresent(3, true);
  EXPECT_FALSE(world2.IsClosed(db, Itemset{0, 1, 2}));
  EXPECT_TRUE(world2.IsClosed(db, Itemset{0, 1, 2, 3}));
  EXPECT_TRUE(world2.IsFrequentClosed(db, Itemset{0, 1, 2, 3}, 2));
  // An absent itemset is "not closed" by the paper's convention.
  PossibleWorld empty(4);
  EXPECT_FALSE(empty.IsClosed(db, Itemset{0}));
}

TEST(WorldEnumerator, ProbabilitiesSumToOne) {
  const UncertainDatabase db = MakePaperExampleDb();
  double total = 0.0;
  std::size_t count = 0;
  EnumerateWorlds(db, [&](const PossibleWorld&, double prob) {
    total += prob;
    ++count;
  });
  EXPECT_EQ(count, 16u);  // Table III: 16 possible worlds.
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(WorldEnumerator, SamplerMatchesMarginals) {
  const UncertainDatabase db = MakePaperExampleDb();
  Rng rng(21);
  std::vector<int> present_counts(4, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const PossibleWorld world = SampleWorld(db, rng);
    for (Tid tid = 0; tid < 4; ++tid) {
      if (world.IsPresent(tid)) ++present_counts[tid];
    }
  }
  const double expected[] = {0.9, 0.6, 0.7, 0.9};
  for (Tid tid = 0; tid < 4; ++tid) {
    EXPECT_NEAR(static_cast<double>(present_counts[tid]) / n, expected[tid],
                0.01);
  }
}

TEST(DatabaseIo, RoundTripUncertain) {
  const UncertainDatabase db = MakePaperExampleDb();
  const std::string path =
      (std::filesystem::temp_directory_path() / "pfci_io_test.utd").string();
  ASSERT_TRUE(SaveUncertainDatabase(db, path));
  UncertainDatabase loaded;
  std::string error;
  ASSERT_TRUE(LoadUncertainDatabase(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), db.size());
  for (Tid tid = 0; tid < db.size(); ++tid) {
    EXPECT_EQ(loaded.transaction(tid).items, db.transaction(tid).items);
    EXPECT_DOUBLE_EQ(loaded.prob(tid), db.prob(tid));
  }
  std::remove(path.c_str());
}

TEST(DatabaseIo, RejectsMalformedFiles) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string bad_prob = (dir / "pfci_bad_prob.utd").string();
  {
    std::ofstream out(bad_prob);
    out << "1.5 0 1\n";
  }
  UncertainDatabase db;
  std::string error;
  EXPECT_FALSE(LoadUncertainDatabase(bad_prob, &db, &error));
  EXPECT_NE(error.find("probability"), std::string::npos);
  EXPECT_TRUE(db.empty());
  std::remove(bad_prob.c_str());

  const std::string bad_item = (dir / "pfci_bad_item.utd").string();
  {
    std::ofstream out(bad_item);
    out << "0.5 0 x\n";
  }
  EXPECT_FALSE(LoadUncertainDatabase(bad_item, &db, &error));
  std::remove(bad_item.c_str());

  EXPECT_FALSE(LoadUncertainDatabase("/nonexistent/nowhere.utd", &db, &error));
}

TEST(DatabaseIo, RoundTripExact) {
  const std::vector<Itemset> transactions = {Itemset{0, 2, 5}, Itemset{1},
                                             Itemset{0, 1, 2, 3}};
  const std::string path =
      (std::filesystem::temp_directory_path() / "pfci_io_test.dat").string();
  ASSERT_TRUE(SaveExactTransactions(transactions, path));
  std::vector<Itemset> loaded;
  std::string error;
  ASSERT_TRUE(LoadExactTransactions(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded, transactions);
  std::remove(path.c_str());
}

TEST(DatabaseStats, PaperExampleNumbers) {
  const DatabaseStats stats = ComputeStats(MakePaperExampleDb());
  EXPECT_EQ(stats.num_transactions, 4u);
  EXPECT_EQ(stats.num_items, 4u);
  EXPECT_DOUBLE_EQ(stats.avg_length, 3.5);
  EXPECT_EQ(stats.max_length, 4u);
  EXPECT_NEAR(stats.mean_prob, 0.775, 1e-12);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(DatabaseStats, EmptyDatabase) {
  const DatabaseStats stats = ComputeStats(UncertainDatabase{});
  EXPECT_EQ(stats.num_transactions, 0u);
  EXPECT_EQ(stats.num_items, 0u);
  EXPECT_DOUBLE_EQ(stats.avg_length, 0.0);
}

}  // namespace
}  // namespace pfci
