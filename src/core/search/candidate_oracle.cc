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

Qualification CandidateOracle::Qualify(const TidSet& tids,
                                      const QualifyRequest& req,
                                      MiningStats* stats) const {
  Qualification q;
  if (!PassesCountFloor(tids.size(), req, stats)) {
    q.rejects_supersets = true;  // Counts only fall down a path.
    return q;
  }
  // Lemma 4.1: the Chernoff-Hoeffding upper bound settles most
  // rejections without a DP.
  if (use_chernoff_) {
    q.upper = freq_->PrFUpperBound(tids);
    if (q.upper <= req.threshold) {
      if (stats != nullptr) ++stats->pruned_by_chernoff;
      q.rejects_supersets = ClearsSiblingMargin(q.upper, req.threshold);
      return q;
    }
  }

  if (!req.exact_check) {
    q.admitted = true;
    return q;
  }

  // The frequent probability itself: the exact Poisson-binomial DP.
  q.pr_f = freq_->PrF(tids);
  q.admitted = q.pr_f > req.threshold;
  if (!q.admitted) {
    if (stats != nullptr) ++stats->pruned_by_frequency;
    q.rejects_supersets = ClearsSiblingMargin(q.pr_f, req.threshold);
  }
  return q;
}

bool CandidateOracle::Readmits(const Qualification& q, double threshold,
                               MiningStats* stats) const {
  if (q.upper <= threshold) {
    if (stats != nullptr) ++stats->pruned_by_chernoff;
    return false;
  }
  if (q.pr_f <= threshold) {
    if (stats != nullptr) ++stats->pruned_by_frequency;
    return false;
  }
  return true;
}

}  // namespace pfci
