#include "src/core/pfi_miner.h"

#include <optional>

#include "src/core/frequent_probability.h"
#include "src/core/search/candidate_oracle.h"
#include "src/util/check.h"

namespace pfci {
namespace internal {

std::vector<PfiEntry> MinePfiApproximate(const UncertainDatabase& db,
                                         std::size_t min_sup, double pft,
                                         FrequencyMode mode) {
  PFCI_CHECK(min_sup >= 1);
  RunController unlimited;
  ExecutionContext exec;
  exec.runtime = &unlimited;
  return RunFlatEnumeration(
      db, TidSetMode::kAdaptive, min_sup, /*stats=*/nullptr, exec,
      [&](const VerticalIndex& index, const FrequentProbability& freq,
          RunController& rt) {
        // The Chernoff bound stays valid (it bounds the true tail, and
        // every approximation is consistent with it on the scales where
        // it prunes); the tail approximation replaces the exact stage.
        const CandidateOracle oracle(freq, /*use_chernoff=*/true);
        if (mode == FrequencyMode::kExactDp) {
          return EnumeratePfis(index, PrFAbove(oracle, pft), min_sup,
                               /*stats=*/nullptr, rt);
        }
        QualifyRequest bounds;
        bounds.threshold = pft;
        bounds.exact_check = false;
        std::vector<double> probs;
        // This miner reports no counters, so the measure keeps none. Its
        // rejections never speak for supersets: the approximation is not
        // anti-monotone (a superset's smaller variance can lift it back
        // above pft), so the enumeration keeps every rejected sibling.
        const FrequentnessMeasure<TidSet> approximate =
            [&](const TidSet& tids, MiningStats*) -> std::optional<double> {
          if (!oracle.Qualify(tids, bounds, /*stats=*/nullptr).admitted) {
            return std::nullopt;
          }
          index.GatherProbs(tids, &probs);
          const double pr_f = TailAtLeastWithMode(probs, min_sup, mode);
          if (pr_f <= pft) return std::nullopt;
          return pr_f;
        };
        return EnumeratePfis(index, approximate, min_sup, /*stats=*/nullptr,
                             rt);
      });
}

}  // namespace internal
}  // namespace pfci
