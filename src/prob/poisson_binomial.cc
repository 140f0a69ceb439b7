#include "src/prob/poisson_binomial.h"

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cstdint>
#include <optional>

#include "src/util/check.h"

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace pfci {

using internal::ActiveKernelVariant;
using internal::FlushToZeroScope;
using internal::KernelVariant;

namespace {

// Eight doubles: one AVX-512 register, two AVX2 ones, four SSE2 ones.
constexpr std::size_t kLanes = 8;
typedef double Lanes __attribute__((vector_size(kLanes * sizeof(double))));
typedef std::int64_t LaneBits
    __attribute__((vector_size(kLanes * sizeof(std::int64_t))));

/// `x` when kFlush is false; otherwise `x` with every value below DBL_MIN
/// made 0, the explicit form of FTZ (and, on an input, of DAZ). Every
/// value the kernel computes is >= 0, so no NaN or sign reaches it.
template <bool kFlush>
[[gnu::always_inline]] inline double Flush(double x) {
  return kFlush && x < DBL_MIN ? 0.0 : x;
}

// In place: a function returning a 64-byte vector changes the psABI.
template <bool kFlush>
[[gnu::always_inline]] inline void FlushLanes(Lanes& x) {
  if constexpr (kFlush) {
    const LaneBits keep = x >= DBL_MIN;  // All ones where x stays.
    x = reinterpret_cast<Lanes>(reinterpret_cast<LaneBits>(x) & keep);
  }
}

/// The one Poisson-binomial recurrence behind every entry point below.
/// `dp` (zeroed, `states` long) becomes the sum's distribution over its
/// live states (dp[s] = Pr{partial sum == s}), and before each item's
/// state update `tail[t - lo] += dp[t - 1] * p` absorbs the mass that
/// reaches sum t, for every t in [lo, hi] (1 <= lo, hi <= states; lo > hi
/// absorbs nothing and keeps every state). State s depends only on
/// states <= s, so each tail[t - lo] replays the addition sequence of a
/// run truncated at t states verbatim. Skipping the additions of exact
/// zeros while state t-1 is still unreachable changes no bit.
///
/// Band: with rem items left after item i, a state below lo - rem can no
/// longer reach lo, so only states >= bottom = max(0, lo - rem) are
/// updated. A live state reads s and s-1, both live one item earlier,
/// and absorption reads states >= lo-1, which are always live; the dead
/// states keep stale values nobody reads.
///
/// Lanes: the band is updated in place, descending, kLanes states at a
/// time. A chunk loads [s, s+kLanes) and [s-1, s-1+kLanes) before it
/// stores [s, s+kLanes), and the chunks below it are still unwritten, so
/// every lane does the scalar loop's IEEE multiply, multiply and add on
/// the same operands (-ffp-contract=off keeps them unfused).
///
/// kFlush: flush each input probability and each product below DBL_MIN
/// to 0 in code, for targets without MXCSR. All values are >= 0, so a
/// sum of flushed terms is never subnormal.
template <bool kFlush>
[[gnu::always_inline]] inline void RecurrenceBody(
    const double* probs, std::size_t n, std::size_t states, std::size_t lo,
    std::size_t hi, double* dp, double* tail) {
  dp[0] = 1.0;
  std::size_t upper = 0;  // Highest state index that can currently be live.
  for (std::size_t i = 0; i < n; ++i) {
    const double p = Flush<kFlush>(probs[i]);
    PFCI_DCHECK(p >= 0.0 && p <= 1.0);
    const double q = 1.0 - p;
    // Above `upper` every state is still an exact zero.
    const std::size_t absorb_hi = std::min(hi, upper + 1);
    std::size_t t = lo;
    for (; t + kLanes <= absorb_hi + 1; t += kLanes) {
      Lanes sum, mass;
      __builtin_memcpy(&sum, tail + (t - lo), sizeof sum);
      __builtin_memcpy(&mass, dp + (t - 1), sizeof mass);
      Lanes absorbed = mass * p;
      FlushLanes<kFlush>(absorbed);
      sum += absorbed;
      __builtin_memcpy(tail + (t - lo), &sum, sizeof sum);
    }
    for (; t <= absorb_hi; ++t) tail[t - lo] += Flush<kFlush>(dp[t - 1] * p);

    const std::size_t top = std::min(upper + 1, states - 1);
    const std::size_t rem = n - i - 1;
    const std::size_t bottom = lo <= hi && lo > rem ? lo - rem : 0;
    const std::size_t band_lo = std::max<std::size_t>(bottom, 1);
    std::size_t s = top + 1;  // Every state >= s is already updated.
    while (s >= band_lo + kLanes) {
      s -= kLanes;
      Lanes stay, step;
      __builtin_memcpy(&stay, dp + s, sizeof stay);
      __builtin_memcpy(&step, dp + (s - 1), sizeof step);
      Lanes kept = stay * q, moved = step * p;
      FlushLanes<kFlush>(kept);
      FlushLanes<kFlush>(moved);
      stay = kept + moved;
      __builtin_memcpy(dp + s, &stay, sizeof stay);
    }
    while (s > band_lo) {
      --s;
      dp[s] = Flush<kFlush>(dp[s] * q) + Flush<kFlush>(dp[s - 1] * p);
    }
    if (bottom == 0) dp[0] = Flush<kFlush>(dp[0] * q);
    upper = top;
  }
}

using RecurrenceFn = void (*)(const double*, std::size_t, std::size_t,
                              std::size_t, std::size_t, double*, double*);

// One instantiation of the body per variant; the vector code is the
// same, only its register width or its explicit flush differs. noinline
// keeps every variant's arithmetic inside the call that Recurrence
// brackets with the MXCSR writes.
[[gnu::noinline]] void RecurrenceExplicitFlush(
    const double* probs, std::size_t n, std::size_t states, std::size_t lo,
    std::size_t hi, double* dp, double* tail) {
  RecurrenceBody<true>(probs, n, states, lo, hi, dp, tail);
}

#if defined(__x86_64__)
[[gnu::noinline]] void RecurrenceBaseline(const double* probs, std::size_t n,
                                          std::size_t states, std::size_t lo,
                                          std::size_t hi, double* dp,
                                          double* tail) {
  RecurrenceBody<false>(probs, n, states, lo, hi, dp, tail);
}

[[gnu::noinline, gnu::target("avx2")]] void RecurrenceAvx2(
    const double* probs, std::size_t n, std::size_t states, std::size_t lo,
    std::size_t hi, double* dp, double* tail) {
  RecurrenceBody<false>(probs, n, states, lo, hi, dp, tail);
}

[[gnu::noinline, gnu::target("avx512f")]] void RecurrenceAvx512(
    const double* probs, std::size_t n, std::size_t states, std::size_t lo,
    std::size_t hi, double* dp, double* tail) {
  RecurrenceBody<false>(probs, n, states, lo, hi, dp, tail);
}
#endif

// Chosen on first use rather than through ifunc/target_clones: an ifunc
// resolver runs during relocation, before the sanitizer runtimes are
// up, and crashes TSan builds at startup.
// The widest variant wins; the explicit flush is the fallback off x86-64.
KernelVariant SelectVariant() {
  for (const KernelVariant variant :
       {KernelVariant::kAvx512, KernelVariant::kAvx2,
        KernelVariant::kBaseline}) {
    if (internal::KernelVariantAvailable(variant)) return variant;
  }
  return KernelVariant::kExplicitFlush;
}

RecurrenceFn VariantFunction(KernelVariant variant) {
  switch (variant) {
#if defined(__x86_64__)
    case KernelVariant::kBaseline:
      return RecurrenceBaseline;
    case KernelVariant::kAvx2:
      return RecurrenceAvx2;
    case KernelVariant::kAvx512:
      return RecurrenceAvx512;
#endif
    default:
      return RecurrenceExplicitFlush;
  }
}

// The ForceKernelVariant override; -1 when none is set.
std::atomic<int> g_forced_variant{-1};

void Recurrence(const double* probs, std::size_t n, std::size_t states,
                std::size_t lo, std::size_t hi, std::vector<double>* dp_row,
                double* tail) {
  const KernelVariant variant = ActiveKernelVariant();
  dp_row->assign(states, 0.0);
  std::optional<FlushToZeroScope> flush_to_zero;
  if (variant != KernelVariant::kExplicitFlush) flush_to_zero.emplace();
  VariantFunction(variant)(probs, n, states, lo, hi, dp_row->data(), tail);
}

}  // namespace

std::vector<double> PoissonBinomialPmf(const std::vector<double>& probs) {
  std::vector<double> pmf;
  Recurrence(probs.data(), probs.size(), probs.size() + 1, 1, 0, &pmf,
             nullptr);
  return pmf;
}

double PoissonBinomialTailAtLeast(const std::vector<double>& probs,
                                  std::size_t threshold) {
  std::vector<double> dp;
  return PoissonBinomialTailAtLeast(probs.data(), probs.size(), threshold,
                                    &dp);
}

double PoissonBinomialTailAtLeast(const double* probs, std::size_t n,
                                  std::size_t threshold,
                                  std::vector<double>* dp_scratch) {
  if (threshold == 0) return 1.0;
  if (threshold > n) return 0.0;
  double reached = 0.0;
  Recurrence(probs, n, threshold, threshold, threshold, dp_scratch, &reached);
  return reached;
}

void PoissonBinomialTailTable(const double* probs, std::size_t n,
                              std::size_t threshold,
                              std::vector<double>* dp_scratch,
                              std::vector<double>* table) {
  table->assign(threshold + 1, 0.0);
  (*table)[0] = 1.0;  // threshold 0 is certain, as in the direct form.
  // Thresholds above n keep their exact-zero initialization (the direct
  // form returns 0.0 before touching the DP).
  const std::size_t cap = std::min(threshold, n);
  if (cap == 0) return;
  Recurrence(probs, n, cap, 1, cap, dp_scratch, table->data() + 1);
}

double PoissonBinomialMean(const std::vector<double>& probs) {
  double mean = 0.0;
  for (double p : probs) mean += p;
  return mean;
}

double PoissonBinomialVariance(const std::vector<double>& probs) {
  double var = 0.0;
  for (double p : probs) var += p * (1.0 - p);
  return var;
}

namespace internal {

#if defined(__x86_64__)
// MXCSR bit 15 (FTZ) and bit 6 (DAZ).
constexpr unsigned kFtzDaz = 0x8040;

FlushToZeroScope::FlushToZeroScope() : saved_(_mm_getcsr()) {
  _mm_setcsr(saved_ | kFtzDaz);
}

FlushToZeroScope::~FlushToZeroScope() { _mm_setcsr(saved_); }
#else
FlushToZeroScope::FlushToZeroScope() = default;
FlushToZeroScope::~FlushToZeroScope() = default;
#endif

bool KernelVariantAvailable(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kExplicitFlush:
      return true;
#if defined(__x86_64__)
    case KernelVariant::kBaseline:
      return true;
    case KernelVariant::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2");
    case KernelVariant::kAvx512:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

KernelVariant ActiveKernelVariant() {
  static const KernelVariant kDispatched = SelectVariant();
  const int forced = g_forced_variant.load(std::memory_order_relaxed);
  return forced < 0 ? kDispatched : static_cast<KernelVariant>(forced);
}

void ForceKernelVariant(std::optional<KernelVariant> variant) {
  PFCI_CHECK(!variant.has_value() || KernelVariantAvailable(*variant));
  g_forced_variant.store(variant.has_value() ? static_cast<int>(*variant) : -1,
                         std::memory_order_relaxed);
}

}  // namespace internal

}  // namespace pfci
