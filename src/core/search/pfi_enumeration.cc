#include "src/core/search/pfi_enumeration.h"

#include <algorithm>

namespace pfci {

FrequentnessMeasure<TidSet> PrFAbove(const CandidateOracle& oracle,
                                     double pft) {
  return [&oracle, pft](const TidSet& tids,
                        MiningStats* stats) -> std::optional<double> {
    QualifyRequest req;
    req.threshold = pft;
    const double pr_f = oracle.Qualify(tids, req, stats);
    if (pr_f <= pft) return std::nullopt;
    return pr_f;
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
