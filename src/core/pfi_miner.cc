#include "src/core/pfi_miner.h"

#include <optional>

#include "src/core/frequent_probability.h"
#include "src/core/search/candidate_oracle.h"

namespace pfci {

std::vector<PfiEntry> MinePfi(const UncertainDatabase& db,
                              std::size_t min_sup, double pft,
                              bool use_chernoff, MiningStats* stats,
                              TidSetMode tidset_mode,
                              const ExecutionContext* exec) {
  return RunFlatEnumeration(
      db, tidset_mode, min_sup, stats, exec,
      [&](const VerticalIndex& index, const FrequentProbability& freq,
          RunController& rt) {
        const CandidateOracle oracle(freq, use_chernoff);
        return EnumeratePfis(index, PrFAbove(oracle, pft), stats, rt);
      });
}

std::vector<PfiEntry> MinePfiApproximate(const UncertainDatabase& db,
                                         std::size_t min_sup, double pft,
                                         FrequencyMode mode) {
  if (mode == FrequencyMode::kExactDp) return MinePfi(db, min_sup, pft);
  return RunFlatEnumeration(
      db, TidSetMode::kAdaptive, min_sup, /*stats=*/nullptr,
      /*caller_exec=*/nullptr,
      [&](const VerticalIndex& index, const FrequentProbability& freq,
          RunController& rt) {
        // The Chernoff bound stays valid (it bounds the true tail, and
        // every approximation is consistent with it on the scales where
        // it prunes); the tail approximation replaces the exact stage.
        const CandidateOracle oracle(freq, /*use_chernoff=*/true);
        QualifyRequest bounds;
        bounds.threshold = pft;
        bounds.exact_check = false;
        std::vector<double> probs;
        // This miner reports no counters, so the measure keeps none.
        const FrequentnessMeasure<TidSet> approximate =
            [&](const TidSet& tids, MiningStats*) -> std::optional<double> {
          if (oracle.Qualify(tids, bounds, /*stats=*/nullptr) <= pft) {
            return std::nullopt;
          }
          index.GatherProbs(tids, &probs);
          const double pr_f = TailAtLeastWithMode(probs, min_sup, mode);
          if (pr_f <= pft) return std::nullopt;
          return pr_f;
        };
        return EnumeratePfis(index, approximate, /*stats=*/nullptr, rt);
      });
}

}  // namespace pfci
