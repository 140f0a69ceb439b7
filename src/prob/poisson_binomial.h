// Poisson-binomial distribution: sum of independent, non-identical
// Bernoulli variables.
//
// Under the tuple-uncertainty model the support of an itemset X is exactly
// Poisson-binomial over the existence probabilities of the transactions that
// contain X, so this is the probabilistic core of the whole library
// (Definition 3.4 of the paper; the DP is the "dynamic programming approach
// [22]" the paper relies on).
//
// Every entry point below runs one truncated recurrence: the pmf is its
// final row, a tail one absorbing state, a tail table one per threshold.
//
// The kernel updates only the live band of states: with r items left, a
// state below threshold - r can no longer reach the threshold, so it is
// never touched again (its stale value is never read). It runs the band
// eight states at a time in SIMD lanes (a GCC/Clang vector type, in place,
// descending), and picks an AVX-512, AVX2 or baseline build of the same
// code once per process through __builtin_cpu_supports. Every lane does
// the scalar recurrence's multiply, multiply and add on the same operands,
// and every returned value depends only on live states, so results are
// bit-identical to the plain unbanded scalar loop on every ISA. The build
// pins -ffp-contract=off so no target fuses those multiply-adds into
// FMAs, which would change the bits the goldens pin.
#ifndef PFCI_PROB_POISSON_BINOMIAL_H_
#define PFCI_PROB_POISSON_BINOMIAL_H_

#include <cstddef>
#include <vector>

namespace pfci {

/// Full probability mass function of sum(Bernoulli(p_i)).
/// Returns a vector of size n+1 where element s is Pr{sum == s}.
/// O(n^2) time, O(n) space.
std::vector<double> PoissonBinomialPmf(const std::vector<double>& probs);

/// Pr{ sum(Bernoulli(p_i)) >= threshold }.
///
/// Uses the truncated dynamic program of the paper's frequent-probability
/// computation: states 0..threshold-1 plus one absorbing "reached threshold"
/// state, O(threshold * (n - threshold + 1)) time (the live band) and
/// O(threshold) space. threshold == 0 returns 1 exactly.
double PoissonBinomialTailAtLeast(const std::vector<double>& probs,
                                  std::size_t threshold);

/// As above, but reusing `*dp_scratch` (resized to `threshold`) as the DP
/// row so repeated evaluations allocate nothing once the scratch buffer
/// has reached the run's largest threshold. Arithmetic is identical to the
/// allocating overload (bit-identical results).
double PoissonBinomialTailAtLeast(const double* probs, std::size_t n,
                                  std::size_t threshold,
                                  std::vector<double>* dp_scratch);

/// Pr{ sum(Bernoulli(p_i)) >= t } for EVERY t in 0..threshold, in one DP
/// pass. `*table` is resized to threshold + 1 with table[t] the tail
/// probability at threshold t (table[0] == 1 exactly, table[t] == 0 for
/// t > n).
///
/// Bit-exactness contract (relied on by the evaluation cache): each
/// table[t] is bit-identical to a direct PoissonBinomialTailAtLeast(probs,
/// n, t, ...) call. Both run the same recurrence, and the truncated DP's
/// state s depends only on states <= s, so its trajectory is the same
/// under every truncation above s: the table keeps one absorbed-mass
/// accumulator per threshold, added to at the point in the item loop
/// where a direct run at that threshold adds to its single one, which
/// replays each direct run's floating-point addition sequence verbatim.
///
/// Cost is O(n * threshold) time and O(threshold) space: every threshold
/// down to 1 keeps the whole row live, so the band saves nothing here
/// and the table costs up to ~2x an unbanded direct run at `threshold`.
void PoissonBinomialTailTable(const double* probs, std::size_t n,
                              std::size_t threshold,
                              std::vector<double>* dp_scratch,
                              std::vector<double>* table);

/// Expected value of the sum (sum of p_i).
double PoissonBinomialMean(const std::vector<double>& probs);

/// Variance of the sum (sum of p_i (1 - p_i)).
double PoissonBinomialVariance(const std::vector<double>& probs);

}  // namespace pfci

#endif  // PFCI_PROB_POISSON_BINOMIAL_H_
