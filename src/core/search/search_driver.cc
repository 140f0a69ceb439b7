#include "src/core/search/search_driver.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/index_handle.h"
#include "src/util/check.h"
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

std::vector<LiveItem> RootLiveItems(const VerticalIndex& index,
                                    std::size_t min_sup,
                                    const std::vector<Item>& candidates) {
  std::vector<LiveItem> live;
  std::size_t c = 0;
  for (Item item : index.occurring_items()) {
    const std::size_t count = index.TidsOfItem(item).size();
    if (count < min_sup) continue;
    const bool candidate = c < candidates.size() && candidates[c] == item;
    c += candidate ? 1 : 0;
    live.push_back({item, static_cast<std::uint32_t>(count), candidate});
  }
  PFCI_CHECK(c == candidates.size());
  return live;
}

void ClosedDfs(ClosedDfsContext& dfs, const Itemset& x, const TidSet& tids,
               double pr_f, std::span<const LiveItem> parent_live) {
  const SearchContext& ctx = *dfs.ctx;
  const PruningToggles& pruning = ctx.params->pruning;
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

  // One count per item live at X's parent. It serves Lemma 4.2's
  // superset test, Lemma 4.3's same-count break, the children's count
  // floor, and X's extension events.
  const Item last = x.LastItem();
  QualifyRequest req;
  req.threshold = dfs.threshold();
  req.count_floor = dfs.count_floor;
  std::vector<LiveItem> live;
  for (const LiveItem& parent : parent_live) {
    const Item item = parent.item;
    if (item == last) continue;
    const std::size_t count =
        IntersectSize(tids, ctx.index->TidsOfItem(item));
    ++stats.intersections;
    if (pruning.superset && item < last && count == tids.size()) {
      // Lemma 4.2: an earlier item always co-occurs with X, so X and its
      // whole prefix subtree have frequent closed probability 0.
      ++stats.pruned_by_superset;
      return;
    }
    // X's candidate children: the items after X's last one that its
    // parent kept as extensions. Only their count-floor rejections are
    // counted, as child rejections.
    const bool extends = parent.extends && item > last;
    if (!ctx.oracle->PassesCountFloor(count, req,
                                      extends ? &stats : nullptr)) {
      continue;
    }
    live.push_back({item, static_cast<std::uint32_t>(count), extends});
  }

  // Qualify every child before descending into any. A rejected child
  // X+e' leaves the later children's lists only when the rejection holds
  // for every superset (exact count floor, or a bound kSiblingMargin
  // clear of the threshold): X+e+e' would be rejected too. The children
  // whose PrF was computed are kept, admitted or not: X's events reuse
  // it.
  struct Child {
    std::size_t pos;  ///< In `live`.
    Qualification q;
  };
  std::vector<Child> children;
  bool x_may_be_closed = true;
  for (std::size_t i = 0; i < live.size(); ++i) {
    LiveItem& entry = live[i];
    if (!entry.extends) continue;
    if (ctx.rt.StopRequested()) return;
    const TidSet child_tids =
        Intersect(tids, ctx.index->TidsOfItem(entry.item), entry.count);
    const Qualification q = ctx.oracle->Qualify(child_tids, req, &stats);
    if (q.pr_f >= 0.0) children.push_back({i, q});
    if (!q.admitted) entry.extends = !q.rejects_supersets;
    if (pruning.subset && entry.count == tids.size()) {
      // Lemma 4.3: X always co-occurs with X+item, so X is never closed;
      // and any sibling X+e_k (e_k > item) always co-occurs with
      // X+e_k+item, so the remaining branches are dead too. The items
      // after this one stay extensions of the earlier children.
      x_may_be_closed = false;
      break;
    }
  }

  std::vector<std::unique_ptr<Fork>> forks;
  ThreadPool::TaskGroup group(dfs.fork_pool);
  for (const Child& child : children) {
    if (!child.q.admitted) continue;
    if (dfs.unit->truncated || ctx.rt.StopRequested()) break;
    // Top-k's floor may have risen since the qualification: replay the
    // oracle's decision at the current threshold. A constant pfct always
    // readmits.
    if (!ctx.oracle->Readmits(child.q, dfs.threshold(), &stats)) continue;
    const LiveItem& entry = live[child.pos];
    const TidSet& item_tids = ctx.index->TidsOfItem(entry.item);
    Itemset child_x = x.WithItem(entry.item);
    const double child_pr_f = child.q.pr_f;
    const std::vector<Item>& candidates = *dfs.candidates;
    const std::size_t candidates_after = static_cast<std::size_t>(
        candidates.end() -
        std::upper_bound(candidates.begin(), candidates.end(), entry.item));
    // Tids(X+e) is rebuilt from its count rather than kept from the
    // qualification, so that a node holds one child's tid-set at a time;
    // a fork builds it when it runs, not while it waits in the queue.
    if (dfs.may_fork && ForksSubtree(entry.count, candidates_after)) {
      forks.push_back(std::make_unique<Fork>(dfs, child_x));
      group.Spawn([fork = forks.back().get(), child_x = std::move(child_x),
                   &tids, &item_tids, count = entry.count, child_pr_f,
                   &live] {
        ClosedDfs(fork->dfs, child_x, Intersect(tids, item_tids, count),
                  child_pr_f, live);
      });
    } else {
      ClosedDfs(dfs, child_x, Intersect(tids, item_tids, entry.count),
                child_pr_f, live);
    }
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
  // X's extension events come from the same counts, and reuse the PrFs
  // its children's qualification computed.
  std::vector<EventItem> event_items;
  event_items.reserve(live.size());
  auto computed = children.begin();
  for (std::size_t i = 0; i < live.size(); ++i) {
    EventItem item{live[i].item, live[i].count};
    if (computed != children.end() && computed->pos == i) {
      item.pr_f = computed++->q.pr_f;
    }
    event_items.push_back(item);
  }
  const FcpComputation comp =
      ctx.engine->EvaluateAt(dfs.threshold(), x, tids, pr_f, *dfs.rng, &stats,
                             dfs.unit, &event_items);
  if (comp.undecided || !comp.is_pfci) return;
  if (ctx.exec->progress != nullptr) ctx.exec->progress->AddItemsets();
  dfs.emit(MakePfciEntry(x, comp));
}

}  // namespace pfci
