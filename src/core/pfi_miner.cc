#include "src/core/pfi_miner.h"

#include "src/core/frequent_probability.h"
#include "src/core/index_handle.h"
#include "src/core/search/candidate_oracle.h"
#include "src/util/check.h"

namespace pfci {

namespace {

/// The one place a PFI run builds its index and evaluators: borrow or
/// build the index (charged to `runtime`'s memory budget), enumerate, and
/// fold the evaluator's work counters into `stats`.
std::vector<PfiEntry> RunPfi(const UncertainDatabase& db, std::size_t min_sup,
                             double pft, bool use_chernoff, FrequencyMode mode,
                             MiningStats* stats, const TidSetPolicy& policy,
                             RunController* runtime,
                             const ExecutionContext* session) {
  PFCI_CHECK(min_sup >= 1);
  // The runtime is overridden so the handle charges the same controller
  // the search polls.
  ExecutionContext exec = session != nullptr ? *session : ExecutionContext{};
  exec.runtime = runtime;
  const IndexHandle index(db, policy, exec);
  const FrequentProbability freq(index.get(), min_sup, exec.eval_cache,
                                 exec.table_floor);
  const CandidateOracle oracle(index.get(), freq, use_chernoff, mode);
  // Index bytes were charged by the handle; fail an undersized memory
  // budget before any search work.
  CheckpointAtRunStart(runtime);
  std::vector<PfiEntry> pfis =
      EnumeratePfis(index.get(), oracle, pft, stats, runtime);
  if (stats != nullptr) {
    stats->dp_runs += freq.dp_runs();
    stats->cache_hits += freq.cache_hits();
    stats->cache_misses += freq.cache_misses();
    stats->dp_reused += freq.dp_reused();
  }
  return pfis;
}

}  // namespace

std::vector<PfiEntry> MinePfi(const UncertainDatabase& db,
                              std::size_t min_sup, double pft,
                              bool use_chernoff, MiningStats* stats,
                              const TidSetPolicy& policy,
                              RunController* runtime,
                              const ExecutionContext* session) {
  return RunPfi(db, min_sup, pft, use_chernoff, FrequencyMode::kExactDp,
                stats, policy, runtime, session);
}

std::vector<PfiEntry> MinePfiApproximate(const UncertainDatabase& db,
                                         std::size_t min_sup, double pft,
                                         FrequencyMode mode,
                                         MiningStats* stats,
                                         const TidSetPolicy& policy,
                                         RunController* runtime) {
  // The Chernoff bound stays valid (it bounds the true tail, and every
  // approximation is consistent with it on the scales where it prunes).
  return RunPfi(db, min_sup, pft, /*use_chernoff=*/true, mode, stats, policy,
                runtime, /*session=*/nullptr);
}

}  // namespace pfci
