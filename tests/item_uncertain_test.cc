// Tests for the item-level uncertainty model ([9]): containment
// probabilities, expected support, and both miners — cross-validated
// against explicit enumeration of item-occurrence worlds.
#include <cstdint>
#include <cstring>
#include <functional>

#include <gtest/gtest.h>

#include "src/core/mine.h"
#include "src/data/item_uncertain_database.h"
#include "src/prob/poisson_binomial.h"
#include "src/util/random.h"
#include "src/util/trace.h"
#include "tests/item_level_input.h"

namespace pfci {
namespace {

/// Item-level mining through the unified Mine() overload. The expected
/// support (item-esup) or frequent probability (item-pfi) is carried in
/// the pr_f field.
MiningResult MineItemLevel(const ItemUncertainDatabase& db,
                           Algorithm algorithm, double min_esup,
                           std::size_t min_sup, double pft) {
  MiningRequest request;
  request.algorithm = algorithm;
  request.min_esup = min_esup;
  request.params.min_sup = min_sup;
  request.params.pfct = pft;
  MiningResult result = Mine(db, request);
  EXPECT_TRUE(result.ok()) << result.status_message;
  return result;
}

/// Enumerates every world of an item-uncertain database (each item
/// occurrence flips its own coin) and calls visit(world transactions,
/// probability). Total occurrences must stay <= 20.
void EnumerateItemWorlds(
    const ItemUncertainDatabase& db,
    const std::function<void(const std::vector<Itemset>&, double)>& visit) {
  std::size_t total_coins = 0;
  for (const auto& t : db.transactions()) total_coins += t.items.size();
  ASSERT_LE(total_coins, 20u);
  const std::uint64_t limit = std::uint64_t{1} << total_coins;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    std::vector<Itemset> world;
    double prob = 1.0;
    std::size_t coin = 0;
    for (const auto& t : db.transactions()) {
      std::vector<Item> present;
      for (const ProbItem& occurrence : t.items) {
        const bool on = (mask >> coin) & 1;
        ++coin;
        prob *= on ? occurrence.prob : 1.0 - occurrence.prob;
        if (on) present.push_back(occurrence.item);
      }
      world.push_back(Itemset(std::move(present)));
    }
    visit(world, prob);
  }
}

ItemUncertainDatabase SmallDb() {
  // 3 transactions, 7 occurrences total.
  ItemUncertainDatabase db;
  db.Add({{0, 0.9}, {1, 0.5}, {2, 0.7}});
  db.Add({{0, 0.4}, {1, 0.8}});
  db.Add({{1, 0.6}, {2, 0.3}});
  return db;
}

TEST(ItemUncertainDatabase, ContainmentProbs) {
  const ItemUncertainDatabase db = SmallDb();
  EXPECT_NEAR(db.transaction(0).ContainmentProb(Itemset{0, 1}), 0.45, 1e-12);
  EXPECT_NEAR(db.transaction(1).ContainmentProb(Itemset{0, 1}), 0.32, 1e-12);
  EXPECT_DOUBLE_EQ(db.transaction(2).ContainmentProb(Itemset{0}), 0.0);
  EXPECT_DOUBLE_EQ(db.transaction(0).ContainmentProb(Itemset{}), 1.0);
  EXPECT_EQ(ItemColumns(db).occurring_items(), (std::vector<Item>{0, 1, 2}));
}

TEST(ItemUncertainDatabase, ExpectedSupportMatchesWorldSum) {
  const ItemUncertainDatabase db = SmallDb();
  for (const Itemset& x : {Itemset{0}, Itemset{1}, Itemset{0, 1},
                           Itemset{1, 2}, Itemset{0, 1, 2}}) {
    double world_sum = 0.0;
    EnumerateItemWorlds(db, [&](const std::vector<Itemset>& world,
                                double prob) {
      for (const Itemset& t : world) {
        if (x.IsSubsetOf(t)) world_sum += prob;
      }
    });
    EXPECT_NEAR(db.ExpectedSupport(x), world_sum, 1e-12) << x.ToString();
  }
}

TEST(ItemUncertainDatabase, SupportIsPoissonBinomialOverContainment) {
  const ItemUncertainDatabase db = SmallDb();
  const Itemset x{1, 2};
  // Distribution of support(X) over item-occurrence worlds.
  std::vector<double> world_pmf(db.size() + 1, 0.0);
  EnumerateItemWorlds(db, [&](const std::vector<Itemset>& world,
                              double prob) {
    std::size_t support = 0;
    for (const Itemset& t : world) {
      if (x.IsSubsetOf(t)) ++support;
    }
    world_pmf[support] += prob;
  });
  // Poisson-binomial over the containment probabilities.
  const std::vector<double> pmf = PoissonBinomialPmf(db.ContainmentProbs(x));
  for (std::size_t s = 0; s <= db.size(); ++s) {
    EXPECT_NEAR(world_pmf[s], pmf[s], 1e-12) << "s=" << s;
  }
}

TEST(ItemUncertainMiners, ExpectedSupportMinerComplete) {
  const ItemUncertainDatabase db = SmallDb();
  const MiningResult mined = MineItemLevel(
      db, Algorithm::kItemExpectedSupport, 0.5, /*min_sup=*/1, /*pft=*/0.8);
  for (const auto& entry : mined.itemsets) {
    EXPECT_NEAR(entry.pr_f, db.ExpectedSupport(entry.items), 1e-12);
    EXPECT_GE(entry.pr_f, 0.5);
  }
  // Completeness: check every subset of the universe by hand.
  const auto contains = [&mined](const Itemset& x) {
    for (const auto& entry : mined.itemsets) {
      if (entry.items == x) return true;
    }
    return false;
  };
  for (std::uint32_t mask = 1; mask < 8; ++mask) {
    std::vector<Item> items;
    for (Item i = 0; i < 3; ++i) {
      if (mask & (1u << i)) items.push_back(i);
    }
    const Itemset x(items);
    EXPECT_EQ(contains(x), db.ExpectedSupport(x) >= 0.5) << x.ToString();
  }
}

TEST(ItemUncertainMiners, PfiMinerMatchesWorldEnumeration) {
  const ItemUncertainDatabase db = SmallDb();
  const std::size_t min_sup = 2;
  for (double pft : {0.1, 0.3, 0.6}) {
    const MiningResult mined = MineItemLevel(
        db, Algorithm::kItemPfi, /*min_esup=*/0.0, min_sup, pft);
    for (std::uint32_t mask = 1; mask < 8; ++mask) {
      std::vector<Item> items;
      for (Item i = 0; i < 3; ++i) {
        if (mask & (1u << i)) items.push_back(i);
      }
      const Itemset x(items);
      double pr_f = 0.0;
      EnumerateItemWorlds(db, [&](const std::vector<Itemset>& world,
                                  double prob) {
        std::size_t support = 0;
        for (const Itemset& t : world) {
          if (x.IsSubsetOf(t)) ++support;
        }
        if (support >= min_sup) pr_f += prob;
      });
      const PfciEntry* found = nullptr;
      for (const auto& entry : mined.itemsets) {
        if (entry.items == x) found = &entry;
      }
      if (pr_f > pft) {
        ASSERT_NE(found, nullptr) << x.ToString() << " pft=" << pft;
        EXPECT_NEAR(found->pr_f, pr_f, 1e-12);
      } else {
        EXPECT_EQ(found, nullptr) << x.ToString() << " pft=" << pft;
      }
    }
  }
}

TEST(ItemUncertainMiners, RandomizedAgainstEnumeration) {
  Rng rng(8080);
  for (int trial = 0; trial < 10; ++trial) {
    ItemUncertainDatabase db;
    std::size_t coins = 0;
    while (coins < 14) {
      std::vector<ProbItem> occurrences;
      for (Item i = 0; i < 4 && coins + occurrences.size() < 16; ++i) {
        if (rng.NextBernoulli(0.6)) {
          occurrences.push_back(
              ProbItem{i, 0.1 + 0.9 * rng.NextDouble()});
        }
      }
      if (occurrences.empty()) continue;
      coins += occurrences.size();
      db.Add(std::move(occurrences));
    }
    const double min_esup = 0.5 + rng.NextDouble();
    const MiningResult mined = MineItemLevel(
        db, Algorithm::kItemExpectedSupport, min_esup, /*min_sup=*/1,
        /*pft=*/0.8);
    for (const auto& entry : mined.itemsets) {
      EXPECT_NEAR(entry.pr_f, db.ExpectedSupport(entry.items), 1e-9);
    }
  }
}

/// FNV-1a over the entries' itemsets and pr_f bits, in result order.
std::uint64_t ResultDigest(const MiningResult& result) {
  std::uint64_t hash = 14695981039346656037ULL;
  auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xffULL;
      hash *= 1099511628211ULL;
    }
  };
  mix(result.itemsets.size());
  for (const PfciEntry& entry : result.itemsets) {
    mix(entry.items.size());
    for (Item item : entry.items.items()) mix(item);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &entry.pr_f, sizeof(bits));
    mix(bits);
  }
  return hash;
}

TEST(ItemUncertainMiners, ItemLevelAnswersAreBitStable) {
  // Pinned answers of both item-level miners: any change to the
  // enumeration, the containment products or the PrF stages that moves
  // an itemset or a single bit of a reported value shows up here.
  const ItemUncertainDatabase db = RandomItemDb(300, 2112);
  const MiningResult esup = MineItemLevel(
      db, Algorithm::kItemExpectedSupport, /*min_esup=*/12.0,
      /*min_sup=*/1, /*pft=*/0.8);
  EXPECT_EQ(esup.itemsets.size(), 78u);
  EXPECT_EQ(ResultDigest(esup), 0x06a6c60d005bb62aULL);
  const MiningResult pfi = MineItemLevel(
      db, Algorithm::kItemPfi, /*min_esup=*/0.0, /*min_sup=*/12,
      /*pft=*/0.6);
  EXPECT_EQ(pfi.itemsets.size(), 78u);
  EXPECT_EQ(ResultDigest(pfi), 0x5873cee95f838468ULL);
}

TEST(ItemUncertainMiners, ChernoffToggleChangesWorkNotAnswers) {
  // params.pruning.chernoff gates the Lemma 4.1 stage of item-pfi as it
  // does for pfi: the bound only ever rejects itemsets the exact DP
  // rejects too, so the answer keeps every bit either way.
  const ItemUncertainDatabase db = RandomItemDb(300, 2112);
  MiningRequest request;
  request.algorithm = Algorithm::kItemPfi;
  request.params.min_sup = 12;
  request.params.pfct = 0.6;
  const MiningResult on = Mine(db, request);
  request.params.pruning.chernoff = false;
  const MiningResult off = Mine(db, request);
  ASSERT_TRUE(on.ok());
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.itemsets.size(), on.itemsets.size());
  EXPECT_EQ(ResultDigest(off), ResultDigest(on));
  EXPECT_GT(on.stats.pruned_by_chernoff, 0u);
  EXPECT_EQ(off.stats.pruned_by_chernoff, 0u);
  EXPECT_GT(off.stats.dp_runs, on.stats.dp_runs);
}

TEST(ItemUncertainMiners, RunsReportProgressStatsAndTrace) {
  // The item-level overload runs inside the same envelope as every other
  // Mine() call: a final progress snapshot, work counters, and a
  // run_begin .. spans .. counters .. run_end trace.
  const ItemUncertainDatabase db = RandomItemDb(300, 2112);
  MemoryTraceSink trace;
  MiningProgress last;
  MiningRequest request;
  request.algorithm = Algorithm::kItemPfi;
  request.params.min_sup = 12;
  request.params.pfct = 0.6;
  request.trace = &trace;
  request.progress = [&last](const MiningProgress& p) { last = p; };
  const MiningResult result = Mine(db, request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(last.itemsets_found, result.itemsets.size());
  EXPECT_GT(result.stats.nodes_visited, 0u);
  EXPECT_GT(result.stats.intersections, 0u);
  EXPECT_GT(result.stats.dp_runs, 0u);

  const std::vector<TraceEvent> events = trace.TakeSnapshot();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events.front().kind, TraceEvent::Kind::kRunBegin);
  EXPECT_EQ(events.front().name, "item-pfi");
  EXPECT_EQ(events.back().kind, TraceEvent::Kind::kRunEnd);
  EXPECT_EQ(events.back().value, result.itemsets.size());
  bool saw_nodes = false;
  for (const TraceEvent& event : events) {
    if (event.kind == TraceEvent::Kind::kCounter &&
        event.name == "nodes_expanded") {
      saw_nodes = true;
      EXPECT_EQ(event.value, result.stats.nodes_visited);
    }
  }
  EXPECT_TRUE(saw_nodes);
}

}  // namespace
}  // namespace pfci
