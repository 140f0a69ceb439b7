// Behavioral tests for the miners: pruning statistics, toggles, edge
// cases, determinism, and the baseline miners (expected support, [34]
// semantics, naive).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/brute_force.h"
#include "src/core/mine.h"
#include "src/core/probabilistic_support.h"
#include "src/core/search/candidate_oracle.h"
#include "src/core/search/pfi_enumeration.h"
#include "src/data/vertical_index.h"
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

TEST(MpfciMiner, ItemsAfterASameCountBreakStayExtensionsOfEarlierChildren) {
  // c always co-occurs with a, so at {a} the qualification breaks at c
  // (Lemma 4.3) and never qualifies {a,d}. d must stay an extension of
  // the earlier child {a,b} (and of {a,b}'s own break child {a,b,c}):
  // {a,b,c,d} is reachable only through them.
  UncertainDatabase db;
  db.Add(Itemset{0, 1, 2, 3}, 0.9);
  db.Add(Itemset{0, 1, 2, 3}, 0.9);
  db.Add(Itemset{0, 2}, 0.9);
  db.Add(Itemset{1, 3}, 0.9);
  MiningParams params;
  params.min_sup = 2;
  params.pfct = 0.5;
  const MiningResult mpfci = MineWith(Algorithm::kMpfci, db, params);
  const std::vector<FcpGroundTruth> truth =
      internal::BruteForceMinePfci(db, params.min_sup, params.pfct);
  ASSERT_EQ(mpfci.itemsets.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(mpfci.itemsets[i].items, truth[i].items);
    EXPECT_NEAR(mpfci.itemsets[i].fcp, truth[i].fcp, 1e-12);
  }
  EXPECT_TRUE(std::any_of(
      mpfci.itemsets.begin(), mpfci.itemsets.end(),
      [](const PfciEntry& entry) { return entry.items == Itemset{0, 1, 2, 3}; }));
  EXPECT_GT(mpfci.stats.pruned_by_subset, 0u);

  // Top-k walks the same lists.
  MiningRequest topk;
  topk.algorithm = Algorithm::kTopK;
  topk.params = params;
  topk.top_k = truth.size() + 2;
  const MiningResult ranked = Mine(db, topk);
  EXPECT_EQ(ranked.itemsets.size(), truth.size());
  EXPECT_TRUE(std::any_of(
      ranked.itemsets.begin(), ranked.itemsets.end(),
      [](const PfciEntry& entry) { return entry.items == Itemset{0, 1, 2, 3}; }));
}

TEST(FrequentEnumeration, OnlyARejectionClearOfTheMarginDropsASibling) {
  // Tids: a {0,1,2,3}, b {0,2,4}, c {0,1,5}; ab {0,2}, ac {0,1},
  // abc {0}. The measure admits everything but {a,c}, which it rejects
  // with a bound `gap` below the threshold, declaring anti-monotonicity
  // through ClearsSiblingMargin (or not at all).
  UncertainDatabase db;
  db.Add(Itemset{0, 1, 2}, 0.9);
  db.Add(Itemset{0, 2}, 0.9);
  db.Add(Itemset{0, 1}, 0.9);
  db.Add(Itemset{0}, 0.9);
  db.Add(Itemset{1}, 0.9);
  db.Add(Itemset{2}, 0.9);
  const VerticalIndex index(db);
  const TidSet ac = Intersect(index.TidsOfItem(0), index.TidsOfItem(2));
  constexpr double kThreshold = 0.5;
  const auto enumerate = [&](double gap, bool declares) {
    std::size_t evaluations = 0;
    const FrequentnessMeasure<TidSet> measure =
        [&](const TidSet& tids, MiningStats*) -> MeasureVerdict {
      ++evaluations;
      if (!(tids == ac)) return MeasureVerdict(1.0);
      const double bound = kThreshold - gap;
      return {std::nullopt,
              declares && ClearsSiblingMargin(bound, kThreshold)};
    };
    std::vector<Itemset> emitted;
    RunController rt;
    EnumerateFrequent(index, measure, /*count_floor=*/0, "test/node",
                      /*stats=*/nullptr, rt,
                      [&](const Itemset& items, const TidSet&, double) {
                        emitted.push_back(items);
                      });
    std::sort(emitted.begin(), emitted.end());
    return std::make_pair(emitted, evaluations);
  };
  const std::vector<Itemset> with_abc = {{0}, {0, 1}, {0, 1, 2}, {1},
                                         {1, 2},  {2}};
  // Rejected 1e-12 below the threshold: inside the margin, so {a,b}
  // still extends with c.
  EXPECT_EQ(enumerate(1e-12, true).first, with_abc);
  // A measure that does not declare itself anti-monotone never drops.
  EXPECT_EQ(enumerate(0.25, false).first, with_abc);
  // Clear of the margin: c leaves {a,b}'s list, and {a,b,c} is never
  // evaluated.
  const auto [dropped, evaluations] = enumerate(0.25, true);
  EXPECT_EQ(dropped, (std::vector<Itemset>{{0}, {0, 1}, {1}, {1, 2}, {2}}));
  EXPECT_EQ(evaluations + 1, enumerate(0.25, false).second);
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
