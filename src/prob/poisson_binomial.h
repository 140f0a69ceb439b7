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
//
// Flush to zero by specification: the kernel's arithmetic has no
// subnormal numbers. Any input probability, product, DP state or
// absorbed tail below DBL_MIN (2^-1022) is 0, so a tail below 2^-1022 is
// returned as 0.0. On x86-64 every call runs under FlushToZeroScope
// (MXCSR FTZ|DAZ, restored on return); other targets run a build of the
// same body that flushes each product to zero itself. Only values that
// would have been subnormal change, and a DP's cost depends on its number
// of cells, not on its data (subnormal operands cost ~100 cycles each).
#ifndef PFCI_PROB_POISSON_BINOMIAL_H_
#define PFCI_PROB_POISSON_BINOMIAL_H_

#include <cstddef>
#include <optional>
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

namespace internal {

/// The kernel's floating-point mode for the scope of one call: on x86-64
/// it saves MXCSR, sets FTZ (results below DBL_MIN become 0) and DAZ
/// (subnormal operands read as 0), and restores the saved value on exit,
/// so pool threads, libm and the rest of the process keep the default
/// mode. Elsewhere it does nothing (kHardware is false) and the kernel
/// flushes explicitly.
class FlushToZeroScope {
 public:
#if defined(__x86_64__)
  static constexpr bool kHardware = true;
#else
  static constexpr bool kHardware = false;
#endif

  FlushToZeroScope();
  ~FlushToZeroScope();
  FlushToZeroScope(const FlushToZeroScope&) = delete;
  FlushToZeroScope& operator=(const FlushToZeroScope&) = delete;

 private:
  unsigned saved_ = 0;  ///< MXCSR at entry (x86-64).
};

/// The builds of the kernel's one body. kBaseline (SSE2), kAvx2 and
/// kAvx512 run under FlushToZeroScope and exist on x86-64 only;
/// kExplicitFlush flushes each product below DBL_MIN to 0 in code and is
/// what other targets run. It differs from the MXCSR builds only on a
/// product whose exact value lies in [DBL_MIN - 2^-1075, DBL_MIN - 2^-1076):
/// the default rounding takes it up to DBL_MIN, which the explicit flush
/// keeps, while FTZ, detecting tininess after rounding, flushes it to 0.
enum class KernelVariant : unsigned char {
  kBaseline,
  kAvx2,
  kAvx512,
  kExplicitFlush,
};

/// Whether this build and CPU can run `variant`.
bool KernelVariantAvailable(KernelVariant variant);

/// The variant the entry points above run: the forced one, or else the
/// widest the CPU supports (kExplicitFlush off x86-64).
KernelVariant ActiveKernelVariant();

/// Test-only override: runs every later kernel call of the process on
/// `variant` (which must be available), or, with nullopt, on the
/// dispatched one again. Do not call it while a kernel call may be in
/// flight.
void ForceKernelVariant(std::optional<KernelVariant> variant);

}  // namespace internal

}  // namespace pfci

#endif  // PFCI_PROB_POISSON_BINOMIAL_H_
