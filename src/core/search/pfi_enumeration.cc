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

std::vector<PfiEntry> EnumeratePfis(
    const VerticalIndex& index, const FrequentnessMeasure<TidSet>& measure,
    MiningStats* stats, RunController& rt) {
  std::vector<PfiEntry> pfis;
  EnumerateFrequent(index, measure, "pfi/node", stats, rt,
                    [&pfis](const Itemset& items, const TidSet& tids,
                            double pr_f) {
                      pfis.push_back(PfiEntry{items, pr_f, tids});
                    });
  std::sort(pfis.begin(), pfis.end());
  return pfis;
}

}  // namespace pfci
