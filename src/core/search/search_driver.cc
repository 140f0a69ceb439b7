#include "src/core/search/search_driver.h"

#include <memory>
#include <utility>
#include <vector>

#include "src/core/index_handle.h"
#include "src/util/failpoint.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace pfci {

MiningResult RunSearch(const UncertainDatabase& db, const MiningParams& params,
                       const ExecutionContext& exec, FrontierPolicy& policy) {
  Stopwatch timer;
  MiningResult result;
  const IndexHandle index_handle(db, params.tidset_mode, exec);
  const VerticalIndex& index = index_handle.get();
  const FrequentProbability freq(index, params.min_sup, exec.eval_cache);
  const FcpEngine engine(index, freq, params, exec);
  const CandidateOracle oracle(freq, params.pruning.chernoff);
  RunController& rt = *exec.runtime;
  const SearchContext ctx{&db,   &params, &exec,   &index,
                          &freq, &oracle, &engine, rt};

  // The index (built or session-borrowed) was charged into the memory
  // budget by the handle; checkpoint so an undersized budget fails
  // before any search work.
  rt.Checkpoint();

  // Resume replaces the candidate build: the frontier policy reloads the
  // suspended run's candidates and frontier, and the decided entries and
  // base counters seed the result, under the same trace span, so a
  // resumed run's trace shape is identical to an uninterrupted run's.
  const RunSnapshot* resume = exec.resume_snapshot;
  const bool restoring = resume != nullptr && resume->has_frontier;
  if (restoring || !rt.StopRequested()) {
    TraceSpan span(exec.trace, "candidate_build",
                   &result.stats.candidate_seconds);
    if (restoring) {
      policy.RestoreState(ctx, *resume);
      result.itemsets = resume->entries;
      AddBaseStats(resume->base, &result.stats);
    } else {
      policy.BuildCandidates(ctx, result);
    }
  }
  {
    TraceSpan span(exec.trace, policy.phase_name(),
                   &result.stats.search_seconds);
    policy.Search(ctx, result);
  }
  {
    TraceSpan span(exec.trace, "merge", &result.stats.merge_seconds);
    policy.Merge(ctx, result);
    freq.AddCountersTo(result.stats);
  }
  result.stats.outcome = rt.outcome();
  result.stats.truncated = rt.truncated();
  // A drained suspend-armed run deposits its frontier state for Mine()
  // to persist. The post-merge result.stats are exactly the snapshot's
  // base: no unit was half-done, so nothing needs attribution.
  if (exec.save_snapshot != nullptr && rt.suspend_armed() &&
      rt.SuspendRequested()) {
    RunSnapshot& snapshot = *exec.save_snapshot;
    policy.SaveState(snapshot);
    snapshot.entries = result.itemsets;
    snapshot.base = result.stats;
    snapshot.has_frontier = true;
  }
  result.stats.seconds = timer.ElapsedSeconds();
  result.stats.EmitTrace(exec.trace);
  return result;
}

std::uint64_t SubtreeSeed(std::uint64_t seed, const Itemset& x) {
  for (const Item item : x.items()) seed = DeriveSeed(seed, item);
  return seed;
}

namespace {

/// Lemma 4.2: some item e < last(X), e not in X, has count(X+e) ==
/// count(X) -> X and its whole prefix subtree have frequent closed
/// probability 0. Charges the subset tests to stats.intersections; the
/// caller bumps pruned_by_superset on a hit.
bool SupersetPruned(const VerticalIndex& index, const Itemset& x,
                    const TidSet& tids, MiningStats& stats) {
  const Item last = x.LastItem();
  for (Item item : index.occurring_items()) {
    if (item >= last) break;
    if (x.Contains(item)) continue;
    const TidSet& item_tids = index.TidsOfItem(item);
    if (item_tids.size() < tids.size()) continue;
    ++stats.intersections;
    if (IsSubsetOf(tids, item_tids)) return true;
  }
  return false;
}

/// One forked child subtree: its own RNG scope and partial result, folded
/// into the parent in spawn order. A spawned fork also gets a private
/// (unlimited) ledger; an inline fork shares its unit's quota ledger.
struct Fork {
  Fork(const ClosedDfsContext& parent, const Itemset& x)
      : rng(SubtreeSeed(parent.ctx->params->seed, x)), dfs(parent) {
    dfs.stats = &stats;
    dfs.rng = &rng;
    dfs.emit = [this](PfciEntry entry) { entries.push_back(std::move(entry)); };
    if (parent.fork_pool != nullptr) dfs.unit = &unit;
  }

  MiningStats stats;
  std::vector<PfciEntry> entries;
  Rng rng;
  WorkUnitBudget unit;
  ClosedDfsContext dfs;
};

}  // namespace

void ClosedDfs(ClosedDfsContext& dfs, const Itemset& x, const TidSet& tids,
               double pr_f, std::size_t last_candidate_pos) {
  const SearchContext& ctx = *dfs.ctx;
  MiningStats& stats = *dfs.stats;
  // Node-expansion checkpoint (DESIGN.md §10). After any truncation the
  // unit winds down without evaluating anything further: a later sampled
  // evaluation would read a shifted RNG stream and no longer match the
  // unbudgeted run.
  PFCI_FAILPOINT(dfs.failpoint);
  if (ctx.rt.Checkpoint()) return;
  if (!dfs.unit->TakeNode()) return;
  ++stats.nodes_visited;
  if (ctx.exec->progress != nullptr) ctx.exec->progress->AddNodes();

  if (ctx.params->pruning.superset &&
      SupersetPruned(*ctx.index, x, tids, stats)) {
    ++stats.pruned_by_superset;
    return;
  }

  bool x_may_be_closed = true;
  std::vector<std::unique_ptr<Fork>> forks;
  ThreadPool::TaskGroup group(dfs.fork_pool);
  const std::size_t num_candidates = dfs.candidates->size();
  for (std::size_t c = last_candidate_pos + 1; c < num_candidates; ++c) {
    if (dfs.unit->truncated || ctx.rt.StopRequested()) break;
    const Item item = (*dfs.candidates)[c];
    const TidSet& item_tids = ctx.index->TidsOfItem(item);
    const std::size_t count = IntersectSize(tids, item_tids);
    ++stats.intersections;
    const bool same_count = count == tids.size();
    if (ctx.params->pruning.subset && same_count) {
      // Lemma 4.3: X always co-occurs with X+item, so X is never closed;
      // and any sibling X+e_k (e_k > item) always co-occurs with
      // X+e_k+item, so the remaining branches are dead too.
      x_may_be_closed = false;
    }

    QualifyRequest req;
    req.threshold = dfs.threshold();
    req.count_floor = dfs.count_floor;
    // Count before building: Tids(X+item) is materialized only once it
    // passes the oracle's support-count floor.
    if (!ctx.oracle->PassesCountFloor(count, req, &stats)) {
      if (ctx.params->pruning.subset && same_count) break;
      continue;
    }
    TidSet child_tids = Intersect(tids, item_tids);
    const double child_pr_f = ctx.oracle->Qualify(child_tids, req, &stats);
    if (child_pr_f > req.threshold) {
      Itemset child = x.WithItem(item);
      if (dfs.may_fork &&
          ForksSubtree(child_tids.size(), num_candidates - c - 1)) {
        forks.push_back(std::make_unique<Fork>(dfs, child));
        group.Spawn([fork = forks.back().get(), child = std::move(child),
                     child_tids = std::move(child_tids), child_pr_f, c] {
          ClosedDfs(fork->dfs, child, child_tids, child_pr_f, c);
        });
      } else {
        ClosedDfs(dfs, child, child_tids, child_pr_f, c);
      }
    }
    if (ctx.params->pruning.subset && same_count) break;
  }
  group.Wait();
  for (const std::unique_ptr<Fork>& fork : forks) {
    stats.MergeCounters(fork->stats);
    for (PfciEntry& entry : fork->entries) dfs.emit(std::move(entry));
  }

  if (dfs.unit->truncated || ctx.rt.StopRequested()) return;
  if (!x_may_be_closed) {
    ++stats.pruned_by_subset;
    return;
  }
  const FcpComputation comp = ctx.engine->EvaluateAt(
      dfs.threshold(), x, tids, pr_f, *dfs.rng, &stats, dfs.unit);
  if (comp.undecided || !comp.is_pfci) return;
  if (ctx.exec->progress != nullptr) ctx.exec->progress->AddItemsets();
  dfs.emit(MakePfciEntry(x, comp));
}

}  // namespace pfci
