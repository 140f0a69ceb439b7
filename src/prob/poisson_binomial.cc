#include "src/prob/poisson_binomial.h"

#include <algorithm>

#include "src/util/check.h"

namespace pfci {

namespace {

/// The one Poisson-binomial recurrence behind every entry point below.
/// `*dp_row` becomes the first `states` states of the sum's distribution
/// (dp[s] = Pr{partial sum == s}), and before each item's state update
/// `tail[t - lo] += dp[t - 1] * p` absorbs the mass that reaches sum t,
/// for every t in [lo, hi] (1 <= lo, hi <= states; lo > hi absorbs
/// nothing). State s depends only on states <= s, so each tail[t - lo]
/// replays the addition sequence of a run truncated at t states verbatim,
/// including its additions of exact zeros while state t-1 is unreachable.
void Recurrence(const double* probs, std::size_t n, std::size_t states,
                std::size_t lo, std::size_t hi, std::vector<double>* dp_row,
                double* tail) {
  dp_row->assign(states, 0.0);
  double* dp = dp_row->data();
  dp[0] = 1.0;
  std::size_t upper = 0;  // Highest state index that can currently be live.
  for (std::size_t i = 0; i < n; ++i) {
    const double p = probs[i];
    PFCI_DCHECK(p >= 0.0 && p <= 1.0);
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

}  // namespace pfci
