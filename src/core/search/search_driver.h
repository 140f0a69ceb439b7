// The run skeleton of the unified search kernel (DESIGN.md §12).
//
// Every MiningResult-producing miner is the same five-act play: build the
// index and evaluators, filter first-level candidates, enumerate a
// frontier, merge deterministically, stamp outcome/timing/telemetry. The
// SearchDriver owns the play; a FrontierPolicy supplies the enumeration
// strategy (work-stealing DFS, level-synchronous BFS, threshold-adaptive
// top-k, flat single-pass checking). The miners' entry points reduce to
// "validate, pick a policy, run the driver".
//
// Invariant carried over from the pre-kernel miners: for a fixed request,
// results, stats counters, and trace event sequences are bit-identical
// across thread counts and tid-set modes, including truncated fail-soft
// partials (tests/kernel_parity_test.cc pins this against pre-refactor
// goldens).
#ifndef PFCI_CORE_SEARCH_SEARCH_DRIVER_H_
#define PFCI_CORE_SEARCH_SEARCH_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/core/execution.h"
#include "src/core/fcp_engine.h"
#include "src/core/frequent_probability.h"
#include "src/core/mining_params.h"
#include "src/core/mining_result.h"
#include "src/core/search/candidate_oracle.h"
#include "src/core/search/run_snapshot.h"
#include "src/data/uncertain_database.h"
#include "src/data/vertical_index.h"
#include "src/util/random.h"
#include "src/util/runtime.h"

namespace pfci {

class ThreadPool;

/// Read-only run state the driver hands to its policy: the request and
/// the shared evaluators (qualification oracle, FCP certification
/// engine) built over the run's one index.
struct SearchContext {
  const UncertainDatabase* db;
  const MiningParams* params;
  const ExecutionContext* exec;
  const VerticalIndex* index;
  const FrequentProbability* freq;
  const CandidateOracle* oracle;
  const FcpEngine* engine;
  RunController& rt;  ///< *exec->runtime.
};

/// One enumeration strategy. Policies are single-use: a fresh instance
/// per run carries the per-run frontier state (candidate lists, levels,
/// the top-k pool).
class FrontierPolicy {
 public:
  virtual ~FrontierPolicy() = default;

  /// Search-phase trace span name ("dfs", "bfs", "sampling").
  virtual const char* phase_name() const = 0;

  /// Filters the first level (runs under the "candidate_build" span).
  virtual void BuildCandidates(const SearchContext& ctx,
                               MiningResult& result) = 0;

  /// Enumerates and evaluates the frontier (under the phase_name span).
  virtual void Search(const SearchContext& ctx, MiningResult& result) = 0;

  /// Folds per-task partials and orders the output (under the "merge"
  /// span; the driver folds the shared evaluator counters afterwards).
  virtual void Merge(const SearchContext& ctx, MiningResult& result) = 0;

  /// Checkpoint/resume (DESIGN.md §14). When
  /// ExecutionContext::resume_snapshot carries a frontier, the driver
  /// calls RestoreState instead of BuildCandidates (same trace span, so
  /// the resumed run's trace shape matches an uninterrupted run) and
  /// itself seeds the result with the snapshot's entries and base
  /// counters. RestoreState rebuilds the candidate / frontier state
  /// WITHOUT recomputation-visible counter bumps — the suspended run's
  /// counters arrive wholesale via AddBaseStats, and the resumed totals
  /// must equal an uninterrupted run's. When a suspend-armed run drained,
  /// the driver calls SaveState after Merge, then writes the merged
  /// entries and counters into the snapshot itself.
  virtual void RestoreState(const SearchContext& ctx,
                            const RunSnapshot& snapshot) = 0;
  virtual void SaveState(RunSnapshot& snapshot) const = 0;
};

/// Runs one mining request through `policy`, replaying the shared
/// contract: run-start checkpoint, the candidate_build / phase / merge
/// trace spans, the shared-evaluator counter fold, outcome stamping,
/// snapshot restore/save, and post-merge counter telemetry. `params`
/// must already be validated.
MiningResult RunSearch(const UncertainDatabase& db, const MiningParams& params,
                       const ExecutionContext& exec, FrontierPolicy& policy);

/// Fork rule of the MPFCI DFS (DESIGN.md §7): a qualified child whose
/// estimated subtree cost, |tids| × candidates after it, reaches this
/// cutoff is mined as a fork with its own RNG scope and partial result.
inline constexpr std::uint64_t kForkMinCost = 65536;

/// Whether a child with `num_tids` tids and `remaining_candidates`
/// extension candidates forks. A pure function of the node: thread
/// count, tid-set mode, budgets and pool never enter it.
inline bool ForksSubtree(std::size_t num_tids,
                         std::size_t remaining_candidates) {
  return static_cast<std::uint64_t>(num_tids) * remaining_candidates >=
         kForkMinCost;
}

/// Seed of the RNG scope rooted at `x`: DeriveSeed folded over its items,
/// so a first-level subtree {i} draws from DeriveSeed(seed, i).
std::uint64_t SubtreeSeed(std::uint64_t seed, const Itemset& x);

/// An item still count-live at a DFS node X: X+item has at least min_sup
/// possible occurrences. Tids(X) only shrinks down a path, so an item
/// dead at X stays dead in X's whole subtree, and each node tests only
/// the items live at its parent. A node owns its list; its children
/// (forks included: a node waits for its forks) read it.
struct LiveItem {
  Item item;
  std::uint32_t count;  ///< |Tids(X+item)|.
  /// Whether X's children may extend with the item: a first-level
  /// candidate after X's last item that X's qualification did not reject
  /// for every superset.
  bool extends;
};

/// The live list of the empty itemset, parent of every first-level
/// subtree: each occurring item with at least `min_sup` tids, ascending,
/// with the first-level `candidates` (ascending) marked as extensions.
std::vector<LiveItem> RootLiveItems(const VerticalIndex& index,
                                    std::size_t min_sup,
                                    const std::vector<Item>& candidates);

/// Per-call state of one closed-itemset DFS work unit (an MPFCI
/// first-level subtree, or the top-k run's single unit). The stats/rng/
/// unit objects are owned by the caller and mutated in place.
struct ClosedDfsContext {
  const SearchContext* ctx;
  const std::vector<Item>* candidates;  ///< First-level candidates.
  MiningStats* stats;
  Rng* rng;
  WorkUnitBudget* unit;
  const char* failpoint;  ///< Node-expansion failpoint name.
  bool count_floor;       ///< Child floor rejections bump pruned_by_frequency.
  /// The pruning threshold, re-read per child (constant pfct, or the
  /// top-k rising floor).
  std::function<double()> threshold;
  /// Receives each certified qualifying itemset (appends to a partial
  /// result, or offers into the top-k pool).
  std::function<void(PfciEntry)> emit;
  /// Whether children fork (ForksSubtree). Set by the MPFCI frontier
  /// only: top-k's threshold rises as results are emitted, so its DFS
  /// stays one sequential stream.
  bool may_fork = false;
  /// Runs forks as tasks; null runs each fork inline, at once, in order.
  /// Null whenever the unit carries a finite node or sample quota, so a
  /// truncated unit stops at its sequential prefix.
  ThreadPool* fork_pool = nullptr;
};

/// The set-enumeration-tree DFS shared by the work-stealing and top-k
/// frontiers: checkpoint, superset pruning (Lemma 4.2), child
/// qualification through the oracle, subset pruning (Lemma 4.3), and
/// endgame certification through the engine (Fig. 1's
/// Bounding-Pruning-Checking per node). `parent_live` is the live list of
/// X's parent (RootLiveItems for a first-level subtree): X counts each of
/// its items once, qualifies every child before descending into any, and
/// extends only with the items its parent marked as extensions. A node
/// waits for its forked children and folds their partials, in spawn
/// order, before certifying itself.
void ClosedDfs(ClosedDfsContext& dfs, const Itemset& x, const TidSet& tids,
               double pr_f, std::span<const LiveItem> parent_live);

}  // namespace pfci

#endif  // PFCI_CORE_SEARCH_SEARCH_DRIVER_H_
