// Integration-level invariants on the realistic quick-scale datasets:
// result-set containments, threshold monotonicity, bound consistency, and
// cross-variant agreement at a scale far beyond the brute-force oracles.
#include <gtest/gtest.h>

#include "src/core/mine.h"
#include "src/harness/dataset_factory.h"
#include "src/harness/variants.h"

namespace pfci {
namespace {

// All invariant checks go through the Mine() front door.
MiningResult MineWith(Algorithm algorithm, const UncertainDatabase& db,
                      const MiningParams& params) {
  MiningRequest request;
  request.algorithm = algorithm;
  request.params = params;
  return Mine(db, request);
}

struct DatasetCase {
  const char* name;
  double rel_min_sup;
  bool mushroom;
};

class QuickDatasetInvariants : public ::testing::TestWithParam<DatasetCase> {
 protected:
  UncertainDatabase MakeDb() const {
    return GetParam().mushroom ? MakeUncertainMushroom(BenchScale::kQuick)
                               : MakeUncertainQuest(BenchScale::kQuick);
  }
  MiningParams MakeParams(const UncertainDatabase& db) const {
    MiningParams params;
    params.min_sup = AbsoluteMinSup(db.size(), GetParam().rel_min_sup);
    params.pfct = 0.8;
    return params;
  }
};

TEST_P(QuickDatasetInvariants, EntriesAreConsistent) {
  const UncertainDatabase db = MakeDb();
  const MiningParams params = MakeParams(db);
  const MiningResult result = MineWith(Algorithm::kMpfci, db, params);
  ASSERT_FALSE(result.itemsets.empty()) << "trivial test configuration";
  for (std::size_t i = 0; i < result.itemsets.size(); ++i) {
    const PfciEntry& entry = result.itemsets[i];
    // Sorted, duplicate-free output.
    if (i > 0) {
      EXPECT_LT(result.itemsets[i - 1].items, entry.items);
    }
    // Probabilistic sanity: pfct < fcp <= PrF <= 1, bounds bracket fcp.
    EXPECT_GT(entry.fcp, params.pfct);
    EXPECT_LE(entry.fcp, entry.pr_f + 1e-9);
    EXPECT_LE(entry.pr_f, 1.0 + 1e-12);
    EXPECT_LE(entry.fcp_lower, entry.fcp + 1e-9);
    EXPECT_GE(entry.fcp_upper + 1e-9, entry.fcp);
    // The itemset must actually be frequent-count-feasible.
    EXPECT_GE(db.Count(entry.items), params.min_sup);
  }
}

TEST_P(QuickDatasetInvariants, PfciSetContainedInPfiSet) {
  const UncertainDatabase db = MakeDb();
  const MiningParams params = MakeParams(db);
  const MiningResult pfci = MineWith(Algorithm::kMpfci, db, params);
  const std::vector<PfciEntry> pfis =
      MineWith(Algorithm::kPfi, db, params).itemsets;
  EXPECT_LE(pfci.itemsets.size(), pfis.size());
  // Every PFCI is a PFI with identical PrF.
  std::size_t pfi_pos = 0;
  for (const PfciEntry& entry : pfci.itemsets) {
    while (pfi_pos < pfis.size() && pfis[pfi_pos].items < entry.items) {
      ++pfi_pos;
    }
    ASSERT_LT(pfi_pos, pfis.size());
    ASSERT_EQ(pfis[pfi_pos].items, entry.items);
    EXPECT_NEAR(pfis[pfi_pos].pr_f, entry.pr_f, 1e-9);
  }
}

TEST_P(QuickDatasetInvariants, MonotoneInPfct) {
  const UncertainDatabase db = MakeDb();
  MiningParams params = MakeParams(db);
  params.pfct = 0.7;
  const MiningResult loose = MineWith(Algorithm::kMpfci, db, params);
  params.pfct = 0.9;
  const MiningResult tight = MineWith(Algorithm::kMpfci, db, params);
  EXPECT_LE(tight.itemsets.size(), loose.itemsets.size());
  // Tight answer ⊆ loose answer.
  for (const PfciEntry& entry : tight.itemsets) {
    EXPECT_NE(loose.Find(entry.items), nullptr) << entry.items.ToString();
  }
}

TEST_P(QuickDatasetInvariants, MonotoneInMinSup) {
  const UncertainDatabase db = MakeDb();
  MiningParams params = MakeParams(db);
  const MiningResult base = MineWith(Algorithm::kMpfci, db, params);
  MiningParams harder = params;
  harder.min_sup = params.min_sup * 2;
  const MiningResult fewer_frequent = MineWith(Algorithm::kMpfci, db, harder);
  // Raising min_sup cannot increase the number of *frequent* itemsets,
  // and in practice shrinks the closed answer as well; at minimum, every
  // surviving itemset must satisfy the stronger count requirement.
  for (const PfciEntry& entry : fewer_frequent.itemsets) {
    EXPECT_GE(db.Count(entry.items), harder.min_sup);
  }
}

TEST_P(QuickDatasetInvariants, AllVariantsAgreeAtScale) {
  const UncertainDatabase db = MakeDb();
  const MiningParams params = MakeParams(db);
  const MiningResult reference = MineWith(Algorithm::kMpfci, db, params);
  for (AlgorithmVariant variant :
       {AlgorithmVariant::kNoCh, AlgorithmVariant::kNoSuper,
        AlgorithmVariant::kNoSub, AlgorithmVariant::kNoBound,
        AlgorithmVariant::kBfs}) {
    const MiningResult result = RunVariant(variant, db, params);
    ASSERT_EQ(result.itemsets.size(), reference.itemsets.size())
        << VariantName(variant);
    for (std::size_t i = 0; i < result.itemsets.size(); ++i) {
      EXPECT_EQ(result.itemsets[i].items, reference.itemsets[i].items)
          << VariantName(variant);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, QuickDatasetInvariants,
    ::testing::Values(DatasetCase{"mushroom_0.3", 0.3, true},
                      DatasetCase{"mushroom_0.2", 0.2, true},
                      DatasetCase{"quest_0.3", 0.3, false},
                      DatasetCase{"quest_0.2", 0.2, false}),
    [](const ::testing::TestParamInfo<DatasetCase>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

TEST(EdgeCases, AllCertainTransactions) {
  // p = 1 everywhere: exactly one world; results must equal exact closed
  // mining and every probability must be exactly 0 or 1.
  UncertainDatabase db;
  db.Add(Itemset{0, 1}, 1.0);
  db.Add(Itemset{0, 1}, 1.0);
  db.Add(Itemset{0, 2}, 1.0);
  MiningParams params;
  params.min_sup = 2;
  params.pfct = 0.5;
  const MiningResult result = MineWith(Algorithm::kMpfci, db, params);
  ASSERT_EQ(result.itemsets.size(), 2u);  // {0} (support 3), {0,1}.
  EXPECT_EQ(result.itemsets[0].items, (Itemset{0}));
  EXPECT_EQ(result.itemsets[1].items, (Itemset{0, 1}));
  for (const PfciEntry& entry : result.itemsets) {
    EXPECT_DOUBLE_EQ(entry.fcp, 1.0);
    EXPECT_DOUBLE_EQ(entry.pr_f, 1.0);
  }
}

TEST(EdgeCases, MinSupLargerThanDatabase) {
  UncertainDatabase db;
  db.Add(Itemset{0}, 0.9);
  MiningParams params;
  params.min_sup = 5;
  params.pfct = 0.1;
  EXPECT_TRUE(MineWith(Algorithm::kMpfci, db, params).itemsets.empty());
  EXPECT_TRUE(MineWith(Algorithm::kMpfciBfs, db, params).itemsets.empty());
}

TEST(EdgeCases, DuplicateTransactionsAreIndependentTuples) {
  // Two identical rows with p = 0.5 each: support of {0} is
  // Binomial(2, .5); PrF at min_sup 2 is 0.25, PrFC likewise.
  UncertainDatabase db;
  db.Add(Itemset{0}, 0.5);
  db.Add(Itemset{0}, 0.5);
  MiningParams params;
  params.min_sup = 2;
  params.pfct = 0.2;
  const MiningResult result = MineWith(Algorithm::kMpfci, db, params);
  ASSERT_EQ(result.itemsets.size(), 1u);
  EXPECT_NEAR(result.itemsets[0].fcp, 0.25, 1e-12);
}

TEST(EdgeCases, VeryHighPfctYieldsEmptyAnswer) {
  const UncertainDatabase db = MakePaperExampleDb();
  MiningParams params;
  params.min_sup = 2;
  params.pfct = 0.99;
  EXPECT_TRUE(MineWith(Algorithm::kMpfci, db, params).itemsets.empty());
}

TEST(EdgeCases, SingleItemDatabase) {
  UncertainDatabase db;
  for (int i = 0; i < 6; ++i) db.Add(Itemset{4}, 0.5);
  MiningParams params;
  params.min_sup = 3;
  params.pfct = 0.3;
  const MiningResult result = MineWith(Algorithm::kMpfci, db, params);
  ASSERT_EQ(result.itemsets.size(), 1u);
  EXPECT_EQ(result.itemsets[0].items, (Itemset{4}));
  // Pr{Binomial(6, .5) >= 3} = 42/64 = 0.65625, and the itemset is always
  // closed when present.
  EXPECT_NEAR(result.itemsets[0].fcp, 0.65625, 1e-12);
}

}  // namespace
}  // namespace pfci
