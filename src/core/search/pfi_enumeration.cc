#include "src/core/search/pfi_enumeration.h"

#include <algorithm>

namespace pfci {

FrequentnessMeasure<TidSet> PrFAbove(const CandidateOracle& oracle,
                                     double pft) {
  return [&oracle, pft](const TidSet& tids,
                        MiningStats* stats) -> MeasureVerdict {
    QualifyRequest req;
    req.threshold = pft;
    const Qualification q = oracle.Qualify(tids, req, stats);
    if (q.admitted) return MeasureVerdict(q.pr_f);
    // Exact PrF is anti-monotone: the oracle says when a rejection
    // clears the margin that makes it hold for every superset.
    return {std::nullopt, q.rejects_supersets};
  };
}

FrequentnessMeasure<TidSet> ExpectedSupportAtLeast(
    const FrequentProbability& freq, double min_esup) {
  return [&freq, min_esup](const TidSet& tids,
                           MiningStats* stats) -> std::optional<double> {
    const double esup = freq.ExpectedSupport(tids);
    if (esup >= min_esup) return esup;
    if (stats != nullptr) ++stats->pruned_by_frequency;
    return std::nullopt;
  };
}

std::vector<PfiEntry> EnumeratePfis(
    const VerticalIndex& index, const FrequentnessMeasure<TidSet>& measure,
    std::size_t min_sup, MiningStats* stats, RunController& rt) {
  std::vector<PfiEntry> pfis;
  EnumerateFrequent(index, measure, min_sup, "pfi/node", stats, rt,
                    [&pfis](const Itemset& items, const TidSet& tids,
                            double pr_f) {
                      pfis.push_back(PfiEntry{items, pr_f, tids});
                    });
  std::sort(pfis.begin(), pfis.end());
  return pfis;
}

}  // namespace pfci
