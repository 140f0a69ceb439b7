// Unit tests for the Poisson-binomial distribution primitives.
#include "src/prob/poisson_binomial.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace pfci {
namespace {

TEST(PoissonBinomialPmf, EmptyInput) {
  const std::vector<double> pmf = PoissonBinomialPmf({});
  ASSERT_EQ(pmf.size(), 1u);
  EXPECT_DOUBLE_EQ(pmf[0], 1.0);
}

TEST(PoissonBinomialPmf, SingleBernoulli) {
  const std::vector<double> pmf = PoissonBinomialPmf({0.3});
  ASSERT_EQ(pmf.size(), 2u);
  EXPECT_DOUBLE_EQ(pmf[0], 0.7);
  EXPECT_DOUBLE_EQ(pmf[1], 0.3);
}

TEST(PoissonBinomialPmf, MatchesBinomialForEqualProbs) {
  // n=6, p=0.5: pmf[k] = C(6,k)/64.
  const std::vector<double> pmf =
      PoissonBinomialPmf(std::vector<double>(6, 0.5));
  const double kBinomial[] = {1, 6, 15, 20, 15, 6, 1};
  ASSERT_EQ(pmf.size(), 7u);
  for (int k = 0; k <= 6; ++k) {
    EXPECT_NEAR(pmf[k], kBinomial[k] / 64.0, 1e-12) << k;
  }
}

TEST(PoissonBinomialPmf, SumsToOne) {
  const std::vector<double> probs = {0.9, 0.6, 0.7, 0.9, 0.05, 1.0, 0.33};
  double total = 0.0;
  for (double mass : PoissonBinomialPmf(probs)) total += mass;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PoissonBinomialPmf, DeterministicEntries) {
  // With p = 1 entries the sum shifts deterministically.
  const std::vector<double> pmf = PoissonBinomialPmf({1.0, 1.0, 0.5});
  EXPECT_DOUBLE_EQ(pmf[0], 0.0);
  EXPECT_DOUBLE_EQ(pmf[1], 0.0);
  EXPECT_DOUBLE_EQ(pmf[2], 0.5);
  EXPECT_DOUBLE_EQ(pmf[3], 0.5);
}

TEST(PoissonBinomialTail, ThresholdZeroIsOne) {
  EXPECT_DOUBLE_EQ(PoissonBinomialTailAtLeast({}, 0), 1.0);
  EXPECT_DOUBLE_EQ(PoissonBinomialTailAtLeast({0.2, 0.4}, 0), 1.0);
}

TEST(PoissonBinomialTail, ThresholdAboveNIsZero) {
  EXPECT_DOUBLE_EQ(PoissonBinomialTailAtLeast({0.9, 0.9}, 3), 0.0);
  EXPECT_DOUBLE_EQ(PoissonBinomialTailAtLeast({}, 1), 0.0);
}

TEST(PoissonBinomialTail, PaperExampleValue) {
  // Pr{S >= 2} over (.9,.6,.7,.9) = 0.9726 (paper Example 1.2 support
  // distribution of {abc}).
  EXPECT_NEAR(PoissonBinomialTailAtLeast({0.9, 0.6, 0.7, 0.9}, 2), 0.9726,
              1e-12);
}

class TailVsPmf : public ::testing::TestWithParam<int> {};

TEST_P(TailVsPmf, TruncatedDpMatchesFullPmf) {
  // Property: for random prob vectors, the truncated tail DP agrees with
  // the full pmf's suffix sums at every threshold.
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.NextBelow(12);
  std::vector<double> probs(n);
  for (double& p : probs) p = rng.NextDouble();
  const std::vector<double> pmf = PoissonBinomialPmf(probs);
  for (std::size_t s = 0; s <= n + 1; ++s) {
    double suffix = 0.0;
    for (std::size_t k = s; k <= n; ++k) suffix += pmf[k];
    EXPECT_NEAR(PoissonBinomialTailAtLeast(probs, s), suffix, 1e-12)
        << "n=" << n << " s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomVectors, TailVsPmf, ::testing::Range(0, 40));

TEST(PoissonBinomialMoments, MeanAndVariance) {
  const std::vector<double> probs = {0.1, 0.5, 0.9};
  EXPECT_DOUBLE_EQ(PoissonBinomialMean(probs), 1.5);
  EXPECT_NEAR(PoissonBinomialVariance(probs), 0.09 + 0.25 + 0.09, 1e-12);
}

TEST(PoissonBinomialTail, MonotoneInThreshold) {
  const std::vector<double> probs = {0.3, 0.8, 0.5, 0.6, 0.2};
  double previous = 1.0;
  for (std::size_t s = 0; s <= probs.size(); ++s) {
    const double tail = PoissonBinomialTailAtLeast(probs, s);
    EXPECT_LE(tail, previous + 1e-15);
    previous = tail;
  }
}

TEST(PoissonBinomialTail, MonotoneInProbabilities) {
  // Increasing any p_i cannot decrease the tail.
  const std::vector<double> base = {0.3, 0.4, 0.5, 0.6};
  const double before = PoissonBinomialTailAtLeast(base, 2);
  std::vector<double> bumped = base;
  bumped[0] = 0.9;
  EXPECT_GE(PoissonBinomialTailAtLeast(bumped, 2), before);
}

// Entry-point parity: the evaluation cache answers a threshold t from a
// tail table built at some T >= t, so TailTable(T)[t] must carry exactly
// the bits of a direct TailAtLeast(t) run. The atoms exercise exact zeros,
// certain transactions and near-0/near-1 rounding.
constexpr double kAtoms[] = {0.0, 1.0, 1e-12, 1.0 - 1e-12};

std::vector<double> ParityVector(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> probs(rng.NextBelow(81));
  for (double& p : probs) {
    p = rng.NextBernoulli(0.3) ? kAtoms[rng.NextBelow(4)] : rng.NextDouble();
  }
  return probs;
}

TEST(PoissonBinomialTailTable, EveryEntryMatchesDirectTailBitwise) {
  std::vector<double> scratch;
  std::vector<double> table;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const std::vector<double> probs = ParityVector(seed);
    const std::size_t n = probs.size();
    std::vector<std::uint64_t> direct(n + 3);
    for (std::size_t t = 0; t <= n + 2; ++t) {
      direct[t] = std::bit_cast<std::uint64_t>(
          PoissonBinomialTailAtLeast(probs.data(), n, t, &scratch));
    }
    for (std::size_t threshold = 0; threshold <= n + 2; ++threshold) {
      PoissonBinomialTailTable(probs.data(), n, threshold, &scratch, &table);
      ASSERT_EQ(table.size(), threshold + 1);
      for (std::size_t t = 0; t <= threshold; ++t) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(table[t]), direct[t])
            << "seed=" << seed << " n=" << n << " T=" << threshold
            << " t=" << t;
      }
    }
  }
}

TEST(PoissonBinomialPmf, PinnedBits) {
  struct Case {
    std::vector<double> probs;
    std::vector<double> pmf;
  };
  const Case cases[] = {
      {{0.9, 0.6, 0.7, 0.9},
       {0x1.3a92a3055326p-10, 0x1.ad42c3c9eeccp-6, 0x1.793dd97f62b6cp-3,
        0x1.caf4f0d844d02p-2, 0x1.5c5d63886594bp-2}},
      {{1e-12, 1.0 - 1e-12, 0.5, 0.0, 1.0, 0.3, 0.77},
       {0x0p+0, 0x1.6a8820c49a173p-44, 0x1.49ba5e35436b6p-4,
        0x1.89ba5e353e4ep-2, 0x1.ad916872aea31p-2, 0x1.d916872b055d4p-4,
        0x1.041537862accep-43, 0x0p+0}},
      {{0.11, 0.23, 0.37, 0.41, 0.53, 0.67, 0.79, 0.83, 0.97},
       {0x1.62f2a1949b99ep-15, 0x1.fc76a3e5b198bp-10, 0x1.5ea20786265c2p-6,
        0x1.a0b22a4b3d0c3p-4, 0x1.f3b202b0196cbp-3, 0x1.4180c5cb229efp-2,
        0x1.c30473cb3290fp-3, 0x1.4e17d14ddaebp-4, 0x1.d392adbc09dfdp-7,
        0x1.c677e378b2a6p-11}},
  };
  for (const Case& c : cases) {
    const std::vector<double> pmf = PoissonBinomialPmf(c.probs);
    ASSERT_EQ(pmf.size(), c.pmf.size());
    for (std::size_t s = 0; s < pmf.size(); ++s) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pmf[s]),
                std::bit_cast<std::uint64_t>(c.pmf[s]))
          << "n=" << c.probs.size() << " s=" << s << " got " << pmf[s];
    }
  }
}

// The kernel's bitwise oracle: the plain recurrence, with every state
// below `states` updated in scalar order each item and every threshold in
// [lo, hi] absorbed, live or not.
void PlainRecurrence(const double* probs, std::size_t n, std::size_t states,
                     std::size_t lo, std::size_t hi,
                     std::vector<double>* dp_row, double* tail) {
  dp_row->assign(states, 0.0);
  double* dp = dp_row->data();
  dp[0] = 1.0;
  std::size_t upper = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = probs[i];
    const double q = 1.0 - p;
    for (std::size_t t = lo; t <= hi; ++t) tail[t - lo] += dp[t - 1] * p;
    const std::size_t top = std::min(upper + 1, states - 1);
    for (std::size_t s = top; s > 0; --s) {
      dp[s] = dp[s] * q + dp[s - 1] * p;
    }
    dp[0] *= q;
    upper = top;
  }
}

double PlainTail(const std::vector<double>& probs, std::size_t threshold) {
  if (threshold == 0) return 1.0;
  if (threshold > probs.size()) return 0.0;
  std::vector<double> dp;
  double reached = 0.0;
  PlainRecurrence(probs.data(), probs.size(), threshold, threshold,
                  threshold, &dp, &reached);
  return reached;
}

std::vector<double> PlainTable(const std::vector<double>& probs,
                               std::size_t threshold) {
  std::vector<double> table(threshold + 1, 0.0);
  table[0] = 1.0;
  const std::size_t cap = std::min(threshold, probs.size());
  std::vector<double> dp;
  if (cap > 0) {
    PlainRecurrence(probs.data(), probs.size(), cap, 1, cap, &dp,
                    table.data() + 1);
  }
  return table;
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// Uniform draws, a share of them replaced by the fuzz harness's atoms.
std::vector<double> KernelVector(std::size_t n, double atom_share,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> probs(n);
  for (double& p : probs) {
    p = rng.NextBernoulli(atom_share) ? kAtoms[rng.NextBelow(4)]
                                      : rng.NextDouble();
  }
  return probs;
}

void ExpectKernelMatchesPlainRecurrence(const std::vector<double>& probs,
                                        const char* label) {
  const std::size_t n = probs.size();
  std::vector<double> scratch;
  std::vector<double> table;
  const std::vector<double> pmf = PoissonBinomialPmf(probs);
  std::vector<double> plain_pmf;
  PlainRecurrence(probs.data(), n, n + 1, 1, 0, &plain_pmf, nullptr);
  ASSERT_EQ(pmf.size(), plain_pmf.size());
  for (std::size_t s = 0; s <= n; ++s) {
    ASSERT_EQ(Bits(pmf[s]), Bits(plain_pmf[s]))
        << label << " n=" << n << " pmf s=" << s;
  }
  for (std::size_t threshold = 0; threshold <= n + 2; ++threshold) {
    ASSERT_EQ(Bits(PoissonBinomialTailAtLeast(probs.data(), n, threshold,
                                              &scratch)),
              Bits(PlainTail(probs, threshold)))
        << label << " n=" << n << " tail T=" << threshold;
    PoissonBinomialTailTable(probs.data(), n, threshold, &scratch, &table);
    const std::vector<double> plain_table = PlainTable(probs, threshold);
    ASSERT_EQ(table.size(), plain_table.size());
    for (std::size_t t = 0; t <= threshold; ++t) {
      ASSERT_EQ(Bits(table[t]), Bits(plain_table[t]))
          << label << " n=" << n << " table T=" << threshold << " t=" << t;
    }
  }
}

// The banded, lane-parallel kernel must return the plain recurrence's bits
// at every n (every lane remainder and band edge below 70), every
// threshold including n-1, n and above n, and in all three entry points.
TEST(PoissonBinomialKernel, MatchesPlainRecurrenceBitwise) {
  for (std::size_t n = 0; n <= 70; ++n) {
    ExpectKernelMatchesPlainRecurrence(KernelVector(n, 0.0, 1000 + n),
                                       "uniform");
    ExpectKernelMatchesPlainRecurrence(KernelVector(n, 0.3, 2000 + n),
                                       "atoms");
  }
  for (std::size_t n : {297, 300, 303}) {
    ExpectKernelMatchesPlainRecurrence(KernelVector(n, 0.3, 3000 + n),
                                       "atoms");
  }
}

// Pr{sum >= threshold} in long double: the same recurrence over only the
// band of states that are both reachable and still able to reach the
// threshold, so the reference costs what the kernel does.
long double ReferenceTail(const std::vector<double>& probs,
                          std::size_t threshold) {
  const std::size_t n = probs.size();
  if (threshold == 0) return 1.0L;
  if (threshold > n) return 0.0L;
  std::vector<long double> dp(threshold, 0.0L);
  dp[0] = 1.0L;
  long double reached = 0.0L;
  std::size_t upper = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const long double p = probs[i];
    const long double q = 1.0L - p;
    if (upper + 1 == threshold) reached += dp[threshold - 1] * p;
    const std::size_t top = std::min(upper + 1, threshold - 1);
    const std::size_t rem = n - i - 1;
    const std::size_t bottom = threshold > rem ? threshold - rem : 0;
    for (std::size_t s = top; s > 0 && s >= bottom; --s) {
      dp[s] = dp[s] * q + dp[s - 1] * p;
    }
    if (bottom == 0) dp[0] *= q;
    upper = top;
  }
  return reached;
}

std::vector<double> NearOneVector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> probs(n);
  for (double& p : probs) {
    p = rng.NextBernoulli(0.1) ? kAtoms[rng.NextBelow(4)]
                               : 0.999 + 0.001 * rng.NextDouble();
  }
  return probs;
}

// Accuracy at scale: the double-precision kernel stays within 1e-13 of a
// long-double reference at n up to 3e4, one standard deviation either side
// of the mean (tails near 0.84 and 0.16) and at n - 1 and n. The near-one
// vector's mean sits at ~0.95 n (its 1e-12 and 0 atoms cap the sum there),
// so its thresholds test T near n over long runs of p ~ 1. A threshold
// costs the reference T * (n - T + 1) long-double cells; those above
// kMaxCells are skipped to keep unoptimized builds fast, which drops only
// the near-mean thresholds of the uniform vector at n = 3e4.
TEST(PoissonBinomialKernel, AccurateAtScaleAgainstLongDouble) {
  constexpr double kMaxCells = 5e7;
  std::vector<double> scratch;
  for (std::size_t n : {1000, 10000, 30000}) {
    struct Case {
      const char* label;
      std::vector<double> probs;
    };
    const Case cases[] = {{"uniform", KernelVector(n, 0.1, n)},
                          {"near-one", NearOneVector(n, n + 1)}};
    for (const Case& c : cases) {
      const std::size_t center =
          static_cast<std::size_t>(PoissonBinomialMean(c.probs));
      const std::size_t sd = static_cast<std::size_t>(
          std::sqrt(PoissonBinomialVariance(c.probs)));
      for (std::size_t threshold : {center - sd, center + sd, n - 1, n}) {
        if (static_cast<double>(threshold) * (n - threshold + 1) >
            kMaxCells) {
          continue;
        }
        const double got = PoissonBinomialTailAtLeast(
            c.probs.data(), n, threshold, &scratch);
        const long double want = ReferenceTail(c.probs, threshold);
        EXPECT_LE(std::fabs(static_cast<long double>(got) - want), 1e-13L)
            << c.label << " n=" << n << " T=" << threshold << " got " << got
            << " want " << static_cast<double>(want);
      }
    }
  }
}

}  // namespace
}  // namespace pfci
