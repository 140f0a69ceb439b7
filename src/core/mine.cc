#include "src/core/mine.h"

#include <cstddef>
#include <memory>
#include <utility>

#include "src/core/brute_force.h"
#include "src/core/expected_support_miner.h"
#include "src/core/item_uncertain_miners.h"
#include "src/core/search/frontier_policies.h"
#include "src/core/search/pfi_enumeration.h"
#include "src/core/search/run_snapshot.h"
#include "src/core/search/search_driver.h"
#include "src/data/item_uncertain_database.h"
#include "src/data/world_enumerator.h"
#include "src/util/retry.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_pool.h"

namespace pfci {

namespace {

/// The single name table behind AlgorithmName / ParseAlgorithm /
/// AllAlgorithms — adding an algorithm means adding one row here.
struct AlgorithmNameRow {
  Algorithm algorithm;
  const char* name;
};

constexpr AlgorithmNameRow kAlgorithmNames[] = {
    {Algorithm::kMpfci, "mpfci"},
    {Algorithm::kMpfciBfs, "bfs"},
    {Algorithm::kNaive, "naive"},
    {Algorithm::kTopK, "topk"},
    {Algorithm::kPfi, "pfi"},
    {Algorithm::kExpectedSupport, "esup"},
    {Algorithm::kExpectedSupportFpGrowth, "esup-fp"},
    {Algorithm::kBruteForce, "brute"},
    {Algorithm::kItemExpectedSupport, "item-esup"},
    {Algorithm::kItemPfi, "item-pfi"},
};

bool UsesMinEsup(Algorithm algorithm) {
  return algorithm == Algorithm::kExpectedSupport ||
         algorithm == Algorithm::kExpectedSupportFpGrowth ||
         algorithm == Algorithm::kItemExpectedSupport;
}

bool IsItemLevel(Algorithm algorithm) {
  return algorithm == Algorithm::kItemExpectedSupport ||
         algorithm == Algorithm::kItemPfi;
}

/// Algorithms whose frontier policies implement Save/RestoreState. The
/// others still honor snapshot.save_path with a restart-only marker
/// (has_frontier false: resuming reruns from scratch, which is trivially
/// bit-identical).
bool SupportsFrontierResume(Algorithm algorithm) {
  return algorithm == Algorithm::kMpfci ||
         algorithm == Algorithm::kMpfciBfs ||
         algorithm == Algorithm::kNaive || algorithm == Algorithm::kTopK;
}

bool UsesSnapshot(const MiningRequest& request) {
  return !request.snapshot.save_path.empty() ||
         !request.snapshot.resume_path.empty();
}

/// Fingerprint of everything that determines the result: the database
/// contents plus the result-relevant request fields. Execution policy
/// and tidset_mode are deliberately excluded (results are invariant to
/// both, so cross-thread / cross-mode resume is supported); progress,
/// trace, budget, and cancel never affect which entries a completed run
/// reports.
std::uint64_t RequestFingerprint(const UncertainDatabase& db,
                                 const MiningRequest& request) {
  const MiningParams& p = request.params;
  std::uint64_t h = FingerprintDatabase(db);
  h = FnvMixString(h, AlgorithmName(request.algorithm));
  h = FnvMix(h, static_cast<std::uint64_t>(p.min_sup));
  h = FnvMixDouble(h, p.pfct);
  h = FnvMixDouble(h, p.epsilon);
  h = FnvMixDouble(h, p.delta);
  h = FnvMix(h, static_cast<std::uint64_t>(p.pruning.chernoff) |
                    static_cast<std::uint64_t>(p.pruning.superset) << 1 |
                    static_cast<std::uint64_t>(p.pruning.subset) << 2 |
                    static_cast<std::uint64_t>(p.pruning.fcp_bounds) << 3);
  h = FnvMix(h, static_cast<std::uint64_t>(p.exact_event_limit));
  h = FnvMix(h, static_cast<std::uint64_t>(p.force_sampling));
  h = FnvMix(h, p.seed);
  h = FnvMix(h, static_cast<std::uint64_t>(request.top_k));
  h = FnvMixDouble(h, request.min_esup);
  return h;
}

/// min_esup <= 0 defaults to params.min_sup (the natural "same threshold,
/// other measure" reading).
double EffectiveMinEsup(const MiningRequest& request) {
  return request.min_esup > 0.0
             ? request.min_esup
             : static_cast<double>(request.params.min_sup);
}

/// An empty result carrying an API-boundary diagnosis as data.
MiningResult InvalidRequestResult(const std::string& why) {
  MiningResult result;
  result.stats.outcome = Outcome::kInvalidRequest;
  result.status_message = "invalid MiningRequest: " + why;
  return result;
}

/// The possible-world oracle reports the exact PrFC as an exact point.
PfciEntry ToPfciEntry(const FcpGroundTruth& truth) {
  PfciEntry entry;
  entry.items = truth.items;
  entry.fcp = truth.fcp;
  entry.fcp_lower = truth.fcp;
  entry.fcp_upper = truth.fcp;
  entry.method = FcpMethod::kExact;
  return entry;
}

/// Collects each itemset the frequentness enumeration admits as a
/// FrequentnessEntry.
template <typename Cover>
FrequentEmit<Cover> CollectInto(std::vector<PfciEntry>* entries) {
  return [entries](const Itemset& items, const Cover&, double value) {
    entries->push_back(FrequentnessEntry(items, value));
  };
}

/// The run skeleton of the miners that bypass the search kernel:
/// `fill(&stats)` mines and converts under the "search" span; progress,
/// the canonical sort under the "merge" span, outcome stamping, timing,
/// and the counter trace are shared.
template <typename Fill>
MiningResult RunFlat(const ExecutionContext& exec, Fill fill) {
  Stopwatch timer;
  MiningResult result;
  {
    TraceSpan span(exec.trace, "search", &result.stats.search_seconds);
    result.itemsets = fill(&result.stats);
  }
  if (exec.progress != nullptr) {
    exec.progress->AddItemsets(result.itemsets.size());
  }
  {
    TraceSpan span(exec.trace, "merge", &result.stats.merge_seconds);
    result.Sort();
  }
  result.stats.outcome = exec.runtime->outcome();
  result.stats.truncated = exec.runtime->truncated();
  result.stats.seconds = timer.ElapsedSeconds();
  result.stats.EmitTrace(exec.trace);
  return result;
}

/// Runs request.algorithm on `db`: the closed-itemset miners through the
/// search kernel with their frontier policy, the flat miners through
/// RunFlat. The request is already validated.
MiningResult Dispatch(const UncertainDatabase& db,
                      const MiningRequest& request,
                      const ExecutionContext& exec) {
  const MiningParams& params = request.params;
  switch (request.algorithm) {
    case Algorithm::kMpfci: {
      WorkStealingDfsFrontier frontier;
      return RunSearch(db, params, exec, frontier);
    }
    case Algorithm::kMpfciBfs: {
      LevelSyncBfsFrontier frontier;
      return RunSearch(db, params, exec, frontier);
    }
    case Algorithm::kNaive: {
      FlatCheckFrontier frontier;
      return RunSearch(db, params, exec, frontier);
    }
    case Algorithm::kTopK: {
      TopKFrontier frontier(request.top_k);
      return RunSearch(db, params, exec, frontier);
    }
    case Algorithm::kPfi:
      return RunFlat(exec, [&](MiningStats* stats) {
        return RunFlatEnumeration(
            db, params.tidset_mode, params.min_sup, stats, exec,
            [&](const VerticalIndex& index, const FrequentProbability& freq,
                RunController& rt) {
              const CandidateOracle oracle(freq, params.pruning.chernoff);
              std::vector<PfciEntry> entries;
              EnumerateFrequent(index, PrFAbove(oracle, params.pfct),
                                params.min_sup, "pfi/node", stats, rt,
                                CollectInto<TidSet>(&entries));
              return entries;
            });
      });
    case Algorithm::kExpectedSupport:
      // The evaluator only serves expected supports here, which no
      // support threshold enters: min_sup 1 is a placeholder.
      return RunFlat(exec, [&](MiningStats* stats) {
        return RunFlatEnumeration(
            db, params.tidset_mode, /*min_sup=*/1, stats, exec,
            [&](const VerticalIndex& index, const FrequentProbability& freq,
                RunController& rt) {
              std::vector<PfciEntry> entries;
              EnumerateFrequent(
                  index, ExpectedSupportAtLeast(freq, EffectiveMinEsup(request)),
                  /*count_floor=*/0, "esup/node", stats, rt,
                  CollectInto<TidSet>(&entries));
              return entries;
            });
      });
    case Algorithm::kExpectedSupportFpGrowth:
      // The weighted FP-growth baseline: same answer, same run contract.
      return RunFlat(exec, [&](MiningStats* stats) {
        return internal::MineExpectedSupportFpGrowth(
            db, EffectiveMinEsup(request), stats, *exec.runtime);
      });
    case Algorithm::kBruteForce:
      // MineImpl already rejected databases too large to enumerate.
      return RunFlat(exec, [&](MiningStats*) {
        std::vector<PfciEntry> entries;
        for (const FcpGroundTruth& truth : internal::BruteForceMinePfci(
                 db, params.min_sup, params.pfct, exec)) {
          entries.push_back(ToPfciEntry(truth));
        }
        return entries;
      });
    case Algorithm::kItemExpectedSupport:
    case Algorithm::kItemPfi:
      break;  // MineImpl rejects the item-level algorithms.
  }
  return MiningResult{};
}

/// The run envelope every Mine() overload shares: the run's controller
/// (budget and cancel token), the progress sink, and the run_begin /
/// run_end trace markers around `run(exec)`, which finishes wiring
/// `exec` and dispatches. A stopped run that carries no diagnosis of its
/// own is stamped "run stopped: <outcome>".
template <typename Run>
MiningResult RunEnveloped(const MiningRequest& request, Run run) {
  std::unique_ptr<ProgressSink> sink;
  if (request.progress) {
    sink = std::make_unique<ProgressSink>(request.progress,
                                          request.progress_interval);
  }

  RunController controller(request.budget, request.cancel);

  ExecutionContext exec;
  exec.progress = sink.get();
  exec.trace = request.trace;
  exec.runtime = &controller;

  TraceRunBegin(exec.trace, AlgorithmName(request.algorithm));
  MiningResult result = run(exec);
  if (!result.ok() && result.status_message.empty()) {
    result.status_message =
        std::string("run stopped: ") + OutcomeName(result.outcome());
  }
  TraceRunEnd(exec.trace, AlgorithmName(request.algorithm),
              result.itemsets.size(), result.stats.seconds);
  // Sinks flush however the run ended: a cancelled or deadline-stopped
  // run still delivers its final progress snapshot and buffered trace
  // events.
  if (exec.trace != nullptr) exec.trace->Flush();
  if (sink != nullptr) sink->Flush();
  return result;
}

MiningResult MineImpl(const UncertainDatabase& db,
                      const MiningRequest& request,
                      const SessionBindings* bindings) {
  const std::string error = ValidateRequest(request);
  if (!error.empty()) {
    // API-boundary errors are reported as data, not aborts: the caller
    // gets an empty result carrying the diagnosis.
    return InvalidRequestResult(error);
  }
  if (IsItemLevel(request.algorithm)) {
    return InvalidRequestResult(
        std::string("algorithm ") + AlgorithmName(request.algorithm) +
        " mines an ItemUncertainDatabase; use the item-level Mine() "
        "overload");
  }
  if (request.algorithm == Algorithm::kBruteForce &&
      db.size() > kMaxEnumerableTransactions) {
    return InvalidRequestResult(
        "algorithm brute enumerates all 2^n possible worlds and requires "
        "db.size() <= " +
        std::to_string(kMaxEnumerableTransactions) + " (got " +
        std::to_string(db.size()) + ")");
  }

  // Resume loads and verifies the snapshot before any work: a missing,
  // torn, or mismatched snapshot is an API-boundary error reported as
  // data, never a silent from-scratch rerun.
  const std::uint64_t fingerprint =
      UsesSnapshot(request) ? RequestFingerprint(db, request) : 0;
  RunSnapshot resume_snapshot;
  bool resuming = false;
  if (!request.snapshot.resume_path.empty()) {
    const std::string load_error =
        LoadRunSnapshot(request.snapshot.resume_path, &resume_snapshot);
    if (!load_error.empty()) {
      return InvalidRequestResult("snapshot.resume_path: " + load_error);
    }
    if (resume_snapshot.algorithm != AlgorithmName(request.algorithm)) {
      return InvalidRequestResult(
          "snapshot.resume_path: snapshot was written by algorithm '" +
          resume_snapshot.algorithm + "' but the request asks for '" +
          AlgorithmName(request.algorithm) + "'");
    }
    if (resume_snapshot.fingerprint != fingerprint) {
      return InvalidRequestResult(
          "snapshot.resume_path: fingerprint mismatch — the snapshot was "
          "written for a different database or different result-relevant "
          "parameters (thread count and tidset_mode may differ freely)");
    }
    resuming = true;
  }

  // Thread-count 0 means "library default": share the lazily-created
  // global pool. An explicit count gets a dedicated pool of that size so
  // the request's policy is honored exactly.
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = nullptr;
  if (request.execution.num_threads == 0) {
    pool = &ThreadPool::Shared();
  } else {
    owned_pool =
        std::make_unique<ThreadPool>(ResolveNumThreads(request.execution));
    pool = owned_pool.get();
  }

  // A save path arms drain-at-unit-boundary suspension for the
  // frontier-resumable algorithms: a stop request then lets in-flight
  // units finish (refusing new ones), so the captured frontier needs no
  // attribution surgery.
  RunSnapshot save_snapshot;
  const bool save_requested = !request.snapshot.save_path.empty();
  MiningResult result = RunEnveloped(request, [&](ExecutionContext& exec) {
    if (save_requested && SupportsFrontierResume(request.algorithm)) {
      exec.runtime->ArmSuspend();
    }
    exec.pool = pool;
    if (resuming) exec.resume_snapshot = &resume_snapshot;
    if (save_requested) exec.save_snapshot = &save_snapshot;
    if (bindings != nullptr) {
      exec.shared_index = bindings->index;
      exec.eval_cache = bindings->eval_cache;
    }
    return Dispatch(db, request, exec);
  });

  if (resuming) result.stats.resumed = true;
  // A stopped run persists its state for a later resume. Algorithms
  // without frontier capture (or runs stopped before the first drain)
  // write a restart-only marker — resuming from it reruns from scratch,
  // which is trivially bit-identical. The atomic save is retried with
  // backoff; a persistent failure is reported in status_message but
  // never changes the run's outcome (the in-memory result is still a
  // verified partial answer).
  if (save_requested && !result.ok() &&
      result.outcome() != Outcome::kInvalidRequest) {
    save_snapshot.algorithm = AlgorithmName(request.algorithm);
    save_snapshot.fingerprint = fingerprint;
    RetryPolicy retry;
    retry.seed = request.params.seed;
    const RetryResult saved = RetryWithBackoff(retry, [&] {
      return SaveRunSnapshotAtomic(save_snapshot, request.snapshot.save_path);
    });
    if (saved.succeeded) {
      result.stats.snapshot_bytes = SerializeRunSnapshot(save_snapshot).size();
    } else {
      result.status_message += "; snapshot save failed after " +
                               std::to_string(saved.attempts) +
                               " attempts: " + saved.last_error;
    }
  }
  return result;
}

}  // namespace

const char* AlgorithmName(Algorithm algorithm) {
  for (const AlgorithmNameRow& row : kAlgorithmNames) {
    if (row.algorithm == algorithm) return row.name;
  }
  return "unknown";
}

bool ParseAlgorithm(const std::string& name, Algorithm* algorithm) {
  for (const AlgorithmNameRow& row : kAlgorithmNames) {
    if (name == row.name) {
      *algorithm = row.algorithm;
      return true;
    }
  }
  return false;
}

const std::vector<Algorithm>& AllAlgorithms() {
  static const std::vector<Algorithm> kAll = [] {
    std::vector<Algorithm> all;
    for (const AlgorithmNameRow& row : kAlgorithmNames) {
      all.push_back(row.algorithm);
    }
    return all;
  }();
  return kAll;
}

std::string ValidateRequest(const MiningRequest& request) {
  const std::string params_error = ValidateParams(request.params);
  if (!params_error.empty()) return params_error;
  if (request.algorithm == Algorithm::kTopK) {
    if (request.top_k < 1) {
      return "top_k must be >= 1 for Algorithm::kTopK";
    }
  } else if (request.top_k != 0) {
    return std::string("top_k only applies to Algorithm::kTopK; it must "
                       "stay 0 for algorithm ") +
           AlgorithmName(request.algorithm);
  }
  // Negated comparisons so NaN falls into the error branch.
  if (!(request.min_esup >= 0.0)) {
    return "min_esup must be >= 0";
  }
  if (request.min_esup > 0.0 && !UsesMinEsup(request.algorithm)) {
    return std::string("min_esup only applies to the expected-support "
                       "algorithms (esup, esup-fp, item-esup); it must "
                       "stay 0 for algorithm ") +
           AlgorithmName(request.algorithm);
  }
  if (request.progress && request.progress_interval < 1) {
    return "progress_interval must be >= 1";
  }
  if (!(request.budget.deadline_seconds >= 0.0)) {
    return "budget.deadline_seconds must be >= 0";
  }
  if (!(request.budget.degrade_fraction > 0.0 &&
        request.budget.degrade_fraction <= 1.0)) {
    return "budget.degrade_fraction must be in (0, 1]";
  }
  return "";
}

MiningResult Mine(const UncertainDatabase& db, const MiningRequest& request) {
  return MineImpl(db, request, /*bindings=*/nullptr);
}

MiningResult MineWithBindings(const UncertainDatabase& db,
                              const MiningRequest& request,
                              const SessionBindings& bindings) {
  return MineImpl(db, request, &bindings);
}

MiningResult Mine(const ItemUncertainDatabase& db,
                  const MiningRequest& request) {
  const std::string error = ValidateRequest(request);
  if (!error.empty()) return InvalidRequestResult(error);
  if (!IsItemLevel(request.algorithm)) {
    return InvalidRequestResult(
        std::string("algorithm ") + AlgorithmName(request.algorithm) +
        " mines a tuple-level UncertainDatabase; the item-level Mine() "
        "overload serves item-esup and item-pfi");
  }
  if (UsesSnapshot(request)) {
    return InvalidRequestResult(
        "snapshot save/resume applies to the tuple-level Mine() overload "
        "only");
  }

  return RunEnveloped(request, [&](ExecutionContext& exec) {
    return RunFlat(exec, [&](MiningStats* stats) {
      std::vector<PfciEntry> entries;
      const FrequentEmit<ContainmentList> emit =
          CollectInto<ContainmentList>(&entries);
      if (request.algorithm == Algorithm::kItemExpectedSupport) {
        internal::MineItemExpectedSupport(db, EffectiveMinEsup(request),
                                          stats, *exec.runtime, emit);
      } else {
        internal::MineItemPfi(db, request.params.min_sup,
                              request.params.pfct,
                              request.params.pruning.chernoff, stats,
                              *exec.runtime, emit);
      }
      return entries;
    });
  });
}

}  // namespace pfci
