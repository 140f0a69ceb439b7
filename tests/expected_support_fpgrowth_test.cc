// Cross-validation of the UF-growth-style weighted FP-growth against the
// DFS expected-support miner (both reached through the unified Mine()
// dispatch), plus weighted-count semantics checks.
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "src/core/mine.h"
#include "src/harness/dataset_factory.h"
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

/// Expected-support mining through Mine(): entries carry the expected
/// support in pr_f.
MiningResult MineEsup(const UncertainDatabase& db, double min_esup,
                      Algorithm algorithm) {
  MiningRequest request;
  request.algorithm = algorithm;
  request.min_esup = min_esup;
  MiningResult result = Mine(db, request);
  EXPECT_TRUE(result.ok()) << result.status_message;
  return result;
}

void ExpectSameAnswer(const MiningResult& a, const MiningResult& b) {
  ASSERT_EQ(a.itemsets.size(), b.itemsets.size());
  for (std::size_t i = 0; i < a.itemsets.size(); ++i) {
    EXPECT_EQ(a.itemsets[i].items, b.itemsets[i].items);
    EXPECT_NEAR(a.itemsets[i].pr_f, b.itemsets[i].pr_f, 1e-9);
  }
}

TEST(ExpectedSupportFpGrowth, PaperExample) {
  const UncertainDatabase db = MakePaperExampleDb();
  for (double min_esup : {0.5, 1.7, 2.5, 3.0}) {
    ExpectSameAnswer(
        MineEsup(db, min_esup, Algorithm::kExpectedSupportFpGrowth),
        MineEsup(db, min_esup, Algorithm::kExpectedSupport));
  }
}

TEST(ExpectedSupportFpGrowth, WeightedCountsAreExpectedSupports) {
  const UncertainDatabase db = MakeTable4Db();
  const MiningResult mined =
      MineEsup(db, 0.3, Algorithm::kExpectedSupportFpGrowth);
  EXPECT_FALSE(mined.itemsets.empty());
  for (const PfciEntry& entry : mined.itemsets) {
    EXPECT_NEAR(entry.pr_f, db.ExpectedSupport(entry.items), 1e-9)
        << entry.items.ToString(true);
  }
}

class EsupMinersAgree : public ::testing::TestWithParam<int> {};

TEST_P(EsupMinersAgree, RandomDatabases) {
  Rng rng(GetParam() * 97 + 11);
  const UncertainDatabase db =
      RandomDb(rng, 8 + rng.NextBelow(10), 4 + rng.NextBelow(3),
               0.3 + 0.5 * rng.NextDouble());
  for (double min_esup : {0.4, 1.0, 2.0}) {
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " min_esup=" + std::to_string(min_esup));
    ExpectSameAnswer(
        MineEsup(db, min_esup, Algorithm::kExpectedSupportFpGrowth),
        MineEsup(db, min_esup, Algorithm::kExpectedSupport));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDatabases, EsupMinersAgree,
                         ::testing::Range(0, 25));

TEST(ExpectedSupportFpGrowth, QuickDatasetScale) {
  const UncertainDatabase db = MakeUncertainQuest(BenchScale::kQuick);
  const double min_esup = 0.2 * static_cast<double>(db.size());
  ExpectSameAnswer(
      MineEsup(db, min_esup, Algorithm::kExpectedSupportFpGrowth),
      MineEsup(db, min_esup, Algorithm::kExpectedSupport));
}

/// FNV-1a over the itemsets and the bit patterns of their pr_f values, in
/// result order.
std::uint64_t EntryDigest(const std::vector<PfciEntry>& entries) {
  std::uint64_t hash = 14695981039346656037ULL;
  auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xffULL;
      hash *= 1099511628211ULL;
    }
  };
  mix(entries.size());
  for (const PfciEntry& entry : entries) {
    mix(entry.items.size());
    for (Item item : entry.items.items()) mix(item);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &entry.pr_f, sizeof(bits));
    mix(bits);
  }
  return hash;
}

TEST(ExpectedSupportFpGrowth, AnswersAreBitStable) {
  // Pinned answers of the weighted FP-growth: any change to the tree, the
  // item ranking or the conditional-base order that moves an itemset or
  // a single bit of an expected support shows up here.
  Rng rng(20120401);
  const UncertainDatabase db = RandomDb(rng, 300, 12, 0.3);
  struct Pinned {
    double min_esup;
    std::size_t size;
    std::uint64_t digest;
  };
  for (const Pinned& pinned : {
           Pinned{2.0, 315, 0x6833aa320f18e3cdULL},
           Pinned{5.0, 115, 0xc4bfb53d2bfcd639ULL},
           Pinned{15.0, 26, 0x7aafee531e3148fdULL},
       }) {
    const MiningResult mined =
        MineEsup(db, pinned.min_esup, Algorithm::kExpectedSupportFpGrowth);
    EXPECT_EQ(mined.itemsets.size(), pinned.size)
        << "min_esup=" << pinned.min_esup;
    EXPECT_EQ(EntryDigest(mined.itemsets), pinned.digest)
        << "min_esup=" << pinned.min_esup;
  }
}

}  // namespace
}  // namespace pfci
