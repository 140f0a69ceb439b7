// Tests for the Poisson-binomial tail approximations and the approximate
// PFI mining mode ([3]-style acceleration).
#include "src/prob/tail_approximations.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "src/core/mine.h"
#include "src/core/pfi_miner.h"
#include "src/harness/dataset_factory.h"
#include "src/prob/poisson_binomial.h"
#include "src/util/random.h"

namespace pfci {
namespace {

TEST(StdNormal, KnownValues) {
  EXPECT_NEAR(StdNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StdNormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(StdNormalCdf(-1.959963985), 0.025, 1e-6);
}

TEST(TailApproximations, EdgeThresholds) {
  const std::vector<double> probs = {0.3, 0.5, 0.7};
  for (FrequencyMode mode :
       {FrequencyMode::kNormal, FrequencyMode::kRefinedNormal,
        FrequencyMode::kPoisson}) {
    EXPECT_DOUBLE_EQ(TailAtLeastWithMode(probs, 0, mode), 1.0)
        << FrequencyModeName(mode);
    if (mode != FrequencyMode::kPoisson) {
      // A Poisson variable is unbounded; the normal approximations clamp
      // beyond n.
      EXPECT_DOUBLE_EQ(TailAtLeastWithMode(probs, 4, mode), 0.0);
    }
  }
}

TEST(TailApproximations, DegenerateAllCertain) {
  const std::vector<double> probs = {1.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(NormalTailAtLeast(probs, 2), 1.0);
  EXPECT_DOUBLE_EQ(NormalTailAtLeast(probs, 3), 0.0);
  EXPECT_DOUBLE_EQ(RefinedNormalTailAtLeast(probs, 2), 1.0);
}

TEST(PoissonTail, MatchesClosedFormSmallMu) {
  // Poisson(1): Pr{ >= 1 } = 1 - e^-1; Pr{ >= 2 } = 1 - 2 e^-1.
  const std::vector<double> probs = {0.5, 0.5};  // mu = 1.
  EXPECT_NEAR(PoissonTailAtLeast(probs, 1), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(PoissonTailAtLeast(probs, 2), 1.0 - 2.0 * std::exp(-1.0),
              1e-12);
}

class ApproximationAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(ApproximationAccuracy, NormalWithinClassicalErrorOnLargeN) {
  // Berry-Esseen regime: for n = 400 moderate-p Bernoullis the continuity
  // corrected normal approximation is within ~1.5% everywhere.
  Rng rng(GetParam() * 7 + 1);
  const std::size_t n = 400;
  std::vector<double> probs(n);
  for (double& p : probs) p = 0.2 + 0.6 * rng.NextDouble();
  const double mu = PoissonBinomialMean(probs);
  for (double offset : {-20.0, -5.0, 0.0, 5.0, 20.0}) {
    const std::size_t threshold =
        static_cast<std::size_t>(std::max(1.0, mu + offset));
    const double exact = PoissonBinomialTailAtLeast(probs, threshold);
    EXPECT_NEAR(NormalTailAtLeast(probs, threshold), exact, 0.015)
        << "threshold=" << threshold;
    // The skew-corrected version must not be (meaningfully) worse.
    EXPECT_NEAR(RefinedNormalTailAtLeast(probs, threshold), exact, 0.015);
  }
}

TEST_P(ApproximationAccuracy, PoissonAccurateInSparseRegime) {
  // Le Cam: total variation error <= 2 sum p_i^2; with p_i ~ 0.02 over
  // n = 300 that is <= 0.24%... use the bound itself as the tolerance.
  Rng rng(GetParam() * 13 + 2);
  const std::size_t n = 300;
  std::vector<double> probs(n);
  double le_cam = 0.0;
  for (double& p : probs) {
    p = 0.04 * rng.NextDouble();
    le_cam += 2.0 * p * p;
  }
  for (std::size_t threshold : {1, 3, 6, 10}) {
    const double exact = PoissonBinomialTailAtLeast(probs, threshold);
    EXPECT_NEAR(PoissonTailAtLeast(probs, threshold), exact, le_cam + 1e-6)
        << "threshold=" << threshold;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproximationAccuracy,
                         ::testing::Range(0, 10));

/// The exact PFI baseline, Mine()'s kPfi arm.
std::vector<PfciEntry> MineExactPfis(const UncertainDatabase& db,
                                     std::size_t min_sup, double pft) {
  MiningRequest request;
  request.algorithm = Algorithm::kPfi;
  request.params.min_sup = min_sup;
  request.params.pfct = pft;
  return Mine(db, request).itemsets;
}

TEST(ApproximatePfiMiner, ExactModeReproducesThePfiAlgorithm) {
  const UncertainDatabase db = MakePaperExampleDb();
  const auto exact = MineExactPfis(db, 2, 0.8);
  const auto via_mode =
      internal::MinePfiApproximate(db, 2, 0.8, FrequencyMode::kExactDp);
  ASSERT_EQ(via_mode.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(via_mode[i].items, exact[i].items);
    EXPECT_DOUBLE_EQ(via_mode[i].pr_f, exact[i].pr_f);
  }
}

TEST(ApproximatePfiMiner, NormalModeNearExactAtScale) {
  const UncertainDatabase db = MakeUncertainQuest(BenchScale::kQuick);
  const std::size_t min_sup = AbsoluteMinSup(db.size(), 0.2);
  const auto exact = MineExactPfis(db, min_sup, 0.8);
  const auto approx =
      internal::MinePfiApproximate(db, min_sup, 0.8, FrequencyMode::kNormal);
  // The symmetric difference must be a small fraction of the answer: only
  // borderline itemsets (PrF within the CLT error of 0.8) can flip.
  std::size_t common = 0;
  std::size_t ia = 0, ib = 0;
  while (ia < exact.size() && ib < approx.size()) {
    if (exact[ia].items < approx[ib].items) {
      ++ia;
    } else if (approx[ib].items < exact[ia].items) {
      ++ib;
    } else {
      ++common;
      ++ia;
      ++ib;
    }
  }
  const std::size_t sym_diff =
      (exact.size() - common) + (approx.size() - common);
  EXPECT_LE(sym_diff,
            1 + exact.size() / 20)  // <= ~5% of the answer.
      << "exact=" << exact.size() << " approx=" << approx.size();
}

TEST(ApproximatePfiMiner, NormalModeKeepsEveryRejectedSibling) {
  // The normal approximation is not anti-monotone. {a,c} covers three
  // near-certain transactions and 50 unlikely ones: mean 3.5, sigma 0.71,
  // so Pr{S >= 3} ~ 1 - Phi(-1.41) = 0.92, rejected at pft 0.95 by far
  // more than kSiblingMargin. Its superset {a,b,c} keeps only the three
  // near-certain transactions (sigma 0.05), and the approximation admits
  // it. The enumeration must still extend {a,b} with c.
  UncertainDatabase db;
  for (int i = 0; i < 3; ++i) db.Add(Itemset{0, 1, 2}, 0.999);
  for (int i = 0; i < 50; ++i) db.Add(Itemset{0, 2}, 0.01);
  for (int i = 0; i < 3; ++i) db.Add(Itemset{0}, 0.999);
  for (int i = 0; i < 3; ++i) db.Add(Itemset{2}, 0.999);
  const std::vector<PfiEntry> pfis =
      internal::MinePfiApproximate(db, 3, 0.95, FrequencyMode::kNormal);
  std::vector<Itemset> items;
  for (const PfiEntry& entry : pfis) items.push_back(entry.items);
  EXPECT_EQ(items, (std::vector<Itemset>{
                       {0}, {0, 1}, {0, 1, 2}, {1}, {1, 2}, {2}}));
}

/// FNV-1a over the itemsets and the bit patterns of their pr_f values, in
/// result order.
std::uint64_t PfiDigest(const std::vector<PfiEntry>& pfis) {
  std::uint64_t hash = 14695981039346656037ULL;
  auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xffULL;
      hash *= 1099511628211ULL;
    }
  };
  mix(pfis.size());
  for (const PfiEntry& entry : pfis) {
    mix(entry.items.size());
    for (Item item : entry.items.items()) mix(item);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &entry.pr_f, sizeof(bits));
    mix(bits);
  }
  return hash;
}

TEST(ApproximatePfiMiner, ApproximateModesAreBitStable) {
  // Pinned answers of the three approximate modes: any change to the
  // enumeration, the bound stages or the tail approximations that moves
  // an itemset or a single bit of a pr_f shows up here.
  const UncertainDatabase db = MakeUncertainQuest(BenchScale::kQuick);
  const std::size_t min_sup = AbsoluteMinSup(db.size(), 0.2);
  struct Pinned {
    FrequencyMode mode;
    std::size_t size;
    std::uint64_t digest;
  };
  for (const Pinned& pinned : {
           Pinned{FrequencyMode::kNormal, 104, 0x768c7c426916141cULL},
           Pinned{FrequencyMode::kRefinedNormal, 104, 0x3af23e69cf86fecfULL},
           Pinned{FrequencyMode::kPoisson, 101, 0x3e4342917b229d1dULL},
       }) {
    const std::vector<PfiEntry> pfis =
        internal::MinePfiApproximate(db, min_sup, 0.8, pinned.mode);
    EXPECT_EQ(pfis.size(), pinned.size) << FrequencyModeName(pinned.mode);
    EXPECT_EQ(PfiDigest(pfis), pinned.digest)
        << FrequencyModeName(pinned.mode);
  }
}

}  // namespace
}  // namespace pfci
