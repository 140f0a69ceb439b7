// Behavioral tests for the miners: pruning statistics, toggles, edge
// cases, determinism, and the baseline miners (expected support, [34]
// semantics, naive).
#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/mine.h"
#include "src/core/probabilistic_support.h"
#include "src/harness/dataset_factory.h"
#include "src/harness/variants.h"
#include "src/util/random.h"

namespace pfci {
namespace {

MiningParams PaperParams() {
  MiningParams params;
  params.min_sup = 2;
  params.pfct = 0.8;
  return params;
}

// All behavioral tests go through the Mine() front door.
MiningResult MineWith(Algorithm algorithm, const UncertainDatabase& db,
                      const MiningParams& params) {
  MiningRequest request;
  request.algorithm = algorithm;
  request.params = params;
  return Mine(db, request);
}

TEST(MpfciMiner, PruningCountersFire) {
  const UncertainDatabase db = MakePaperExampleDb();
  const MiningResult result = MineWith(Algorithm::kMpfci, db, PaperParams());
  // Example 4.3: subset pruning avoids growing {ac},{ad} etc.; superset
  // pruning stops {b},{c},{d} branches.
  EXPECT_GT(result.stats.pruned_by_superset, 0u);
  EXPECT_GT(result.stats.pruned_by_subset, 0u);
  EXPECT_GT(result.stats.nodes_visited, 0u);
  EXPECT_GE(result.stats.seconds, 0.0);
  EXPECT_FALSE(result.stats.ToString().empty());
}

TEST(MpfciMiner, DisabledPruningsVisitMoreNodes) {
  const UncertainDatabase db = MakeUncertainMushroom(BenchScale::kQuick);
  MiningParams params;
  params.min_sup = AbsoluteMinSup(db.size(), 0.5);
  params.pfct = 0.8;
  const MiningResult full = MineWith(Algorithm::kMpfci, db, params);

  MiningParams no_super = params;
  no_super.pruning.superset = false;
  const MiningResult without_super = MineWith(Algorithm::kMpfci, db, no_super);
  EXPECT_GE(without_super.stats.nodes_visited, full.stats.nodes_visited);

  MiningParams no_sub = params;
  no_sub.pruning.subset = false;
  const MiningResult without_sub = MineWith(Algorithm::kMpfci, db, no_sub);
  EXPECT_GE(without_sub.stats.nodes_visited, full.stats.nodes_visited);

  // All return the same itemsets.
  ASSERT_EQ(without_super.itemsets.size(), full.itemsets.size());
  ASSERT_EQ(without_sub.itemsets.size(), full.itemsets.size());
}

TEST(MpfciMiner, NoBoundVariantComputesMoreFcp) {
  const UncertainDatabase db = MakeUncertainMushroom(BenchScale::kQuick);
  MiningParams params;
  params.min_sup = AbsoluteMinSup(db.size(), 0.5);
  params.pfct = 0.8;
  const MiningResult full = MineWith(Algorithm::kMpfci, db, params);
  MiningParams no_bound = params;
  no_bound.pruning.fcp_bounds = false;
  const MiningResult without = MineWith(Algorithm::kMpfci, db, no_bound);
  EXPECT_EQ(without.stats.decided_by_bounds, 0u);
  EXPECT_GE(without.stats.exact_fcp_computations +
                without.stats.sampled_fcp_computations,
            full.stats.exact_fcp_computations +
                full.stats.sampled_fcp_computations);
  EXPECT_EQ(without.itemsets.size(), full.itemsets.size());
}

TEST(MpfciMiner, DeterministicAcrossRuns) {
  const UncertainDatabase db = MakeUncertainQuest(BenchScale::kQuick);
  MiningParams params;
  params.min_sup = AbsoluteMinSup(db.size(), 0.35);
  params.pfct = 0.8;
  const MiningResult a = MineWith(Algorithm::kMpfci, db, params);
  const MiningResult b = MineWith(Algorithm::kMpfci, db, params);
  ASSERT_EQ(a.itemsets.size(), b.itemsets.size());
  for (std::size_t i = 0; i < a.itemsets.size(); ++i) {
    EXPECT_EQ(a.itemsets[i].items, b.itemsets[i].items);
    EXPECT_DOUBLE_EQ(a.itemsets[i].fcp, b.itemsets[i].fcp);
  }
}

TEST(MpfciMiner, EmptyAndDegenerateInputs) {
  MiningParams params = PaperParams();
  EXPECT_TRUE(MineWith(Algorithm::kMpfci, UncertainDatabase{}, params).itemsets.empty());

  UncertainDatabase tiny;
  tiny.Add(Itemset{0}, 0.3);
  // One low-probability transaction, min_sup 2: nothing can qualify.
  EXPECT_TRUE(MineWith(Algorithm::kMpfci, tiny, params).itemsets.empty());

  // min_sup 1, pfct 0: the singleton qualifies iff PrFC > 0.
  MiningParams loose;
  loose.min_sup = 1;
  loose.pfct = 0.0;
  const MiningResult result = MineWith(Algorithm::kMpfci, tiny, loose);
  ASSERT_EQ(result.itemsets.size(), 1u);
  EXPECT_EQ(result.itemsets[0].items, (Itemset{0}));
  EXPECT_NEAR(result.itemsets[0].fcp, 0.3, 1e-12);
}

TEST(MpfciMiner, CertainDataMatchesExactClosedSemantics) {
  // With all probabilities 1 there is a single world: the PFCIs at any
  // pfct < 1 are exactly the frequent closed itemsets of the exact data.
  UncertainDatabase db;
  db.Add(Itemset{0, 1, 2}, 1.0);
  db.Add(Itemset{0, 1}, 1.0);
  db.Add(Itemset{0, 2}, 1.0);
  MiningParams params;
  params.min_sup = 2;
  params.pfct = 0.9;
  const MiningResult result = MineWith(Algorithm::kMpfci, db, params);
  // Frequent closed at support 2: {0,1}, {0,2}, {0} (support 3).
  ASSERT_EQ(result.itemsets.size(), 3u);
  EXPECT_EQ(result.itemsets[0].items, (Itemset{0}));
  EXPECT_EQ(result.itemsets[1].items, (Itemset{0, 1}));
  EXPECT_EQ(result.itemsets[2].items, (Itemset{0, 2}));
  for (const PfciEntry& entry : result.itemsets) {
    EXPECT_DOUBLE_EQ(entry.fcp, 1.0);
  }
}

TEST(BfsMiner, LevelwiseMatchesDfsOnQuest) {
  const UncertainDatabase db = MakeUncertainQuest(BenchScale::kQuick);
  MiningParams params;
  params.min_sup = AbsoluteMinSup(db.size(), 0.35);
  params.pfct = 0.8;
  const MiningResult dfs = MineWith(Algorithm::kMpfci, db, params);
  const MiningResult bfs = MineWith(Algorithm::kMpfciBfs, db, params);
  ASSERT_EQ(bfs.itemsets.size(), dfs.itemsets.size());
  for (std::size_t i = 0; i < dfs.itemsets.size(); ++i) {
    EXPECT_EQ(bfs.itemsets[i].items, dfs.itemsets[i].items);
  }
}

TEST(PfiMiner, SupersetOfPfciAndSortedOutput) {
  const UncertainDatabase db = MakePaperExampleDb();
  const std::vector<PfciEntry> pfis =
      MineWith(Algorithm::kPfi, db, PaperParams()).itemsets;
  // Example 1.1: 15 probabilistic frequent itemsets (all non-empty subsets
  // of abcd except those with d that fail... exactly 15).
  EXPECT_EQ(pfis.size(), 15u);
  for (std::size_t i = 1; i < pfis.size(); ++i) {
    EXPECT_LT(pfis[i - 1].items, pfis[i].items);
  }
}

TEST(NaiveMiner, AgreesWithMpfciOnModerateData) {
  const UncertainDatabase db = MakeUncertainQuest(BenchScale::kQuick);
  MiningParams params;
  params.min_sup = AbsoluteMinSup(db.size(), 0.4);
  params.pfct = 0.8;
  params.epsilon = 0.05;
  params.delta = 0.05;
  const MiningResult naive = MineWith(Algorithm::kNaive, db, params);
  const MiningResult mpfci = MineWith(Algorithm::kMpfci, db, params);
  ASSERT_EQ(naive.itemsets.size(), mpfci.itemsets.size());
  for (std::size_t i = 0; i < naive.itemsets.size(); ++i) {
    EXPECT_EQ(naive.itemsets[i].items, mpfci.itemsets[i].items);
  }
  EXPECT_GT(naive.stats.sampled_fcp_computations, 0u);
}

TEST(ExpectedSupportMiner, MatchesDirectComputation) {
  const UncertainDatabase db = MakePaperExampleDb();
  MiningRequest request;
  request.algorithm = Algorithm::kExpectedSupport;
  request.min_esup = 1.7;
  const std::vector<PfciEntry> entries = Mine(db, request).itemsets;
  for (const auto& entry : entries) {
    EXPECT_NEAR(entry.pr_f, db.ExpectedSupport(entry.items), 1e-12);
    EXPECT_GE(entry.pr_f, 1.7);
  }
  // esup(d) = 1.8 qualifies; esup(abcd) = 1.8 too; esup(abc) = 3.1.
  bool has_d = false, has_abcd = false;
  for (const auto& entry : entries) {
    if (entry.items == Itemset{3}) has_d = true;
    if (entry.items == Itemset({0, 1, 2, 3})) has_abcd = true;
  }
  EXPECT_TRUE(has_d);
  EXPECT_TRUE(has_abcd);
  // Anti-monotone completeness: every subset of a returned itemset whose
  // esup also qualifies must be present.
  const auto contains = [&entries](const Itemset& x) {
    for (const auto& entry : entries) {
      if (entry.items == x) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains(Itemset{0}));
  EXPECT_TRUE(contains(Itemset{0, 1, 2}));
}

TEST(ProbabilisticSupportMiner, AntiMonotoneAndThresholdBehavior) {
  const UncertainDatabase db = MakeTable4Db();
  // psup is anti-monotone in the itemset and non-increasing in pft.
  for (double pft : {0.5, 0.8, 0.9}) {
    const std::size_t a = ProbabilisticSupport(db, Itemset{0}, pft);
    const std::size_t ab = ProbabilisticSupport(db, Itemset{0, 1}, pft);
    const std::size_t abcd =
        ProbabilisticSupport(db, Itemset{0, 1, 2, 3}, pft);
    EXPECT_GE(a, ab);
    EXPECT_GE(ab, abcd);
  }
  EXPECT_GE(ProbabilisticSupport(db, Itemset{0}, 0.5),
            ProbabilisticSupport(db, Itemset{0}, 0.95));
}

TEST(BruteForce, ConsistencyBetweenSingleAndAllItemsets) {
  const UncertainDatabase db = MakeTable4Db();
  const auto all = BruteForceAllFcp(db, 2);
  for (const auto& entry : all) {
    const WorldProbabilities single =
        BruteForceItemsetProbabilities(db, entry.items, 2);
    EXPECT_NEAR(single.pr_fc, entry.fcp, 1e-12) << entry.items.ToString();
    EXPECT_LE(entry.fcp, single.pr_f + 1e-12);
    EXPECT_LE(entry.fcp, single.pr_c + 1e-12);
  }
}

}  // namespace
}  // namespace pfci
