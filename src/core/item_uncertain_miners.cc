#include "src/core/item_uncertain_miners.h"

#include <optional>

#include "src/prob/poisson_binomial.h"
#include "src/prob/tail_bounds.h"
#include "src/util/check.h"

namespace pfci {

namespace {

/// The run setup of both item-level miners: builds the columns once and
/// charges them to the memory budget, then checkpoints so an undersized
/// budget or a cancelled run stops before any search work.
void EnumerateItemLevel(const ItemUncertainDatabase& db,
                        const FrequentnessMeasure<ContainmentList>& measure,
                        const char* failpoint, MiningStats* stats,
                        RunController& rt,
                        const FrequentEmit<ContainmentList>& emit) {
  const ItemColumns columns(db);
  const std::size_t bytes = columns.MemoryBytes();
  rt.ChargeBytes(bytes);
  rt.Checkpoint();
  EnumerateFrequent(columns, measure, /*count_floor=*/0, failpoint, stats,
                    rt, emit);
  rt.ReleaseBytes(bytes);
}

}  // namespace

namespace internal {

void MineItemExpectedSupport(const ItemUncertainDatabase& db,
                             double min_esup, MiningStats* stats,
                             RunController& rt,
                             const FrequentEmit<ContainmentList>& emit) {
  PFCI_CHECK(min_esup > 0.0);
  const FrequentnessMeasure<ContainmentList> esup_at_least =
      [min_esup](const ContainmentList& cover,
                 MiningStats* counters) -> std::optional<double> {
    // Σ_T Pr{T contains X}, summed in ascending tid order.
    const double esup = PoissonBinomialMean(cover.probs);
    if (esup >= min_esup) return esup;
    if (counters != nullptr) ++counters->pruned_by_frequency;
    return std::nullopt;
  };
  EnumerateItemLevel(db, esup_at_least, "item-esup/node", stats, rt, emit);
}

void MineItemPfi(const ItemUncertainDatabase& db, std::size_t min_sup,
                 double pft, bool use_chernoff, MiningStats* stats,
                 RunController& rt,
                 const FrequentEmit<ContainmentList>& emit) {
  PFCI_CHECK(min_sup >= 1);
  // CandidateOracle's pipeline and counters over the containment
  // probabilities: count floor, Lemma 4.1 bound, then the exact DP.
  const FrequentnessMeasure<ContainmentList> pr_f_above =
      [=](const ContainmentList& cover,
          MiningStats* counters) -> std::optional<double> {
    if (cover.tids.size() < min_sup) {
      if (counters != nullptr) ++counters->pruned_by_frequency;
      return std::nullopt;
    }
    if (use_chernoff &&
        BestUpperTailBound(PoissonBinomialMean(cover.probs),
                           cover.probs.size(),
                           static_cast<double>(min_sup)) <= pft) {
      if (counters != nullptr) ++counters->pruned_by_chernoff;
      return std::nullopt;
    }
    const double pr_f = PoissonBinomialTailAtLeast(cover.probs, min_sup);
    if (counters != nullptr) ++counters->dp_runs;
    if (pr_f > pft) return pr_f;
    if (counters != nullptr) ++counters->pruned_by_frequency;
    return std::nullopt;
  };
  EnumerateItemLevel(db, pr_f_above, "item-pfi/node", stats, rt, emit);
}

}  // namespace internal

}  // namespace pfci
