#include "src/core/search/candidate_oracle.h"

namespace pfci {

bool CandidateOracle::PassesCountFloor(std::size_t count,
                                       const QualifyRequest& req,
                                       MiningStats* stats) const {
  // Support-count floor: fewer than min_sup possible occurrences means
  // PrF(X) = 0 unconditionally.
  if (count >= freq_->min_sup()) return true;
  if (req.count_floor && stats != nullptr) ++stats->pruned_by_frequency;
  return false;
}

double CandidateOracle::Qualify(const TidSet& tids, const QualifyRequest& req,
                                MiningStats* stats) const {
  if (!PassesCountFloor(tids.size(), req, stats)) return 0.0;

  // Lemma 4.1: the Chernoff-Hoeffding upper bound settles most
  // rejections without a DP.
  if (use_chernoff_) {
    const double upper = freq_->PrFUpperBound(tids);
    if (upper <= req.threshold) {
      if (stats != nullptr) ++stats->pruned_by_chernoff;
      return 0.0;
    }
  }

  if (!req.exact_check) return kAdmittedByBounds;

  // The frequent probability itself: the exact Poisson-binomial DP.
  const double pr_f = freq_->PrF(tids);
  if (pr_f <= req.threshold && stats != nullptr) {
    ++stats->pruned_by_frequency;
  }
  return pr_f;
}

}  // namespace pfci
