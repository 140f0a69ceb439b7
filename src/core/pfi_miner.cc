#include "src/core/pfi_miner.h"

#include "src/core/frequent_probability.h"
#include "src/core/index_handle.h"
#include "src/core/search/candidate_oracle.h"
#include "src/util/check.h"

namespace pfci {

namespace {

/// The one place a PFI run builds its index and evaluators: borrow or
/// build the index (charged to the run's memory budget), enumerate, and
/// fold the evaluator's work counters into `stats`.
std::vector<PfiEntry> RunPfi(const UncertainDatabase& db, std::size_t min_sup,
                             double pft, bool use_chernoff, FrequencyMode mode,
                             MiningStats* stats, const TidSetPolicy& policy,
                             const ExecutionContext* caller_exec) {
  PFCI_CHECK(min_sup >= 1);
  // A standalone call runs under a local unlimited controller.
  RunController unlimited;
  ExecutionContext exec =
      caller_exec != nullptr ? *caller_exec : ExecutionContext{};
  if (exec.runtime == nullptr) exec.runtime = &unlimited;
  const IndexHandle index(db, policy, exec);
  const FrequentProbability freq(index.get(), min_sup, exec.eval_cache,
                                 exec.table_floor);
  const CandidateOracle oracle(index.get(), freq, use_chernoff, mode);
  // Index bytes were charged by the handle; fail an undersized memory
  // budget before any search work.
  exec.runtime->Checkpoint();
  std::vector<PfiEntry> pfis =
      EnumeratePfis(index.get(), oracle, pft, stats, *exec.runtime);
  if (stats != nullptr) freq.AddCountersTo(*stats);
  return pfis;
}

}  // namespace

std::vector<PfiEntry> MinePfi(const UncertainDatabase& db,
                              std::size_t min_sup, double pft,
                              bool use_chernoff, MiningStats* stats,
                              const TidSetPolicy& policy,
                              const ExecutionContext* exec) {
  return RunPfi(db, min_sup, pft, use_chernoff, FrequencyMode::kExactDp,
                stats, policy, exec);
}

std::vector<PfiEntry> MinePfiApproximate(const UncertainDatabase& db,
                                         std::size_t min_sup, double pft,
                                         FrequencyMode mode) {
  // The Chernoff bound stays valid (it bounds the true tail, and every
  // approximation is consistent with it on the scales where it prunes).
  return RunPfi(db, min_sup, pft, /*use_chernoff=*/true, mode,
                /*stats=*/nullptr, TidSetPolicy{}, /*caller_exec=*/nullptr);
}

}  // namespace pfci
