// Verifies that the umbrella header is self-contained and exposes every
// public entry point with consistent behaviour.
#include "src/pfci.h"

#include <gtest/gtest.h>

namespace pfci {
namespace {

TEST(UmbrellaHeader, EndToEndSmoke) {
  UncertainDatabase db;
  db.Add(Itemset{0, 1, 2, 3}, 0.9);
  db.Add(Itemset{0, 1, 2}, 0.6);
  db.Add(Itemset{0, 1, 2}, 0.7);
  db.Add(Itemset{0, 1, 2, 3}, 0.9);

  MiningParams params;
  params.min_sup = 2;
  params.pfct = 0.8;

  // Every miner family is reachable through the single include: the
  // mining algorithms through Mine(), the building blocks directly.
  MiningRequest request;
  request.params = params;
  EXPECT_EQ(Mine(db, request).itemsets.size(), 2u);
  request.algorithm = Algorithm::kMpfciBfs;
  EXPECT_EQ(Mine(db, request).itemsets.size(), 2u);
  request.algorithm = Algorithm::kTopK;
  request.top_k = 1;
  EXPECT_EQ(Mine(db, request).itemsets.size(), 1u);
  request.algorithm = Algorithm::kPfi;
  request.top_k = 0;
  EXPECT_EQ(Mine(db, request).itemsets.size(), 15u);
  request.algorithm = Algorithm::kExpectedSupport;
  request.min_esup = 1.0;
  EXPECT_FALSE(Mine(db, request).itemsets.empty());
  EXPECT_FALSE(MinePsupClosed(db, 2, 0.8).empty());
  EXPECT_NEAR(ExactClosedProbability(db, Itemset{0, 1, 2, 3}), 0.99, 1e-12);

  // The unified API reaches the same miners, including the oracle.
  MiningRequest brute;
  brute.params = params;
  brute.algorithm = Algorithm::kBruteForce;
  EXPECT_EQ(Mine(db, brute).itemsets.size(), 2u);

  const TransactionDatabase exact = TransactionDatabase::FromUncertain(db);
  EXPECT_EQ(MineClosedItemsets(exact, 2).size(),
            CharmMineClosedItemsets(exact, 2).size());
}

TEST(UmbrellaHeader, StreamingAndGeneration) {
  MushroomParams gen;
  gen.num_transactions = 50;
  gen.num_attributes = 5;
  const TransactionDatabase exact = GenerateMushroomLike(gen);
  GaussianAssignerParams assign;
  const UncertainDatabase db = AssignGaussianProbabilities(exact, assign);
  EXPECT_EQ(db.size(), 50u);

  MiningParams params;
  params.min_sup = 10;
  params.pfct = 0.5;
  StreamingPfciMiner miner(params, 50);
  for (const auto& t : db.transactions()) miner.Observe(t.items, t.prob);
  EXPECT_EQ(miner.window_fill(), 50u);
  miner.MineWindow();  // Must run without issue.
}

}  // namespace
}  // namespace pfci
