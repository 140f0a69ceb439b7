#include "src/core/search/frontier_policies.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/core/extension_events.h"
#include "src/prob/karp_luby.h"
#include "src/util/failpoint.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace pfci {

namespace {

/// Unit-entry drain gate: true when a suspend-armed controller has a
/// pending drain. Unarmed runs never see it, so pre-snapshot behavior
/// (and the kernel parity goldens) are untouched.
bool DrainPending(const RunController& rt) {
  return rt.suspend_armed() && !rt.ShouldStartUnit();
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkStealingDfsFrontier (MPFCI)

void WorkStealingDfsFrontier::BuildCandidates(const SearchContext& ctx,
                                              MiningResult& result) {
  // Phase 1 of Fig. 1: the candidate set of probabilistic frequent single
  // items (Lemma 4.1 + exact check).
  for (Item item : ctx.index->occurring_items()) {
    QualifyRequest req;
    req.threshold = ctx.params->pfct;
    const Qualification q =
        ctx.oracle->Qualify(ctx.index->TidsOfItem(item), req, &result.stats);
    if (q.admitted) {
      candidates_.push_back(item);
      candidate_pr_f_.push_back(q.pr_f);
    }
  }
}

void WorkStealingDfsFrontier::Search(const SearchContext& ctx,
                                     MiningResult& result) {
  (void)result;  // Partials land in subtree_; Merge folds them.
  const std::size_t n = candidates_.size();
  subtree_.resize(n);
  done_.assign(n, 0);
  const double pfct = ctx.params->pfct;
  const std::vector<LiveItem> roots =
      RootLiveItems(*ctx.index, ctx.freq->min_sup(), candidates_);
  const auto mine_subtree = [&](std::size_t c) {
    if (restored_done_.size() == n && restored_done_[c]) return;
    if (DrainPending(ctx.rt)) return;
    const Itemset root{candidates_[c]};
    Rng rng(SubtreeSeed(ctx.params->seed, root));
    // Fair-share logical budgets: the quota depends only on the request
    // and the candidate count, never on scheduling.
    WorkUnitBudget unit = ctx.rt.UnitBudget(c, n);
    MiningResult& part = subtree_[c];
    ClosedDfsContext dfs;
    dfs.ctx = &ctx;
    dfs.candidates = &candidates_;
    dfs.stats = &part.stats;
    dfs.rng = &rng;
    dfs.unit = &unit;
    dfs.failpoint = "mpfci/node";
    dfs.count_floor = true;
    dfs.threshold = [pfct] { return pfct; };
    dfs.emit = [&part](PfciEntry entry) {
      part.itemsets.push_back(std::move(entry));
    };
    // The subtree forks below its root; a quota-carrying unit runs its
    // forks inline so truncation keeps the sequential prefix.
    dfs.may_fork = true;
    dfs.fork_pool = unit.Unlimited() ? ctx.exec->pool : nullptr;
    ClosedDfs(dfs, root, ctx.index->TidsOfItem(candidates_[c]),
              candidate_pr_f_[c], roots);
    if (unit.truncated) ctx.rt.RecordTruncation(Outcome::kBudgetExhausted);
    // Suspend mode: a drained unit ran to its natural end (armed
    // checkpoints never stop mid-unit), so it is complete by
    // construction; note its work against the unit-granular budgets.
    done_[c] = 1;
    ctx.rt.NoteUnitWork(part.stats.nodes_visited, part.stats.total_samples);
  };
  // One task per subtree: first-level subtrees vary wildly in cost, and
  // stealing at single-subtree granularity is what balances them.
  ParallelFor(ctx.exec->pool, n, mine_subtree);
}

void WorkStealingDfsFrontier::Merge(const SearchContext& ctx,
                                    MiningResult& result) {
  (void)ctx;
  // Deterministic merge: candidate order, then the canonical sort.
  // Restored entries are already in result.itemsets (skipped units'
  // partials stay empty), so the fold remains in candidate order overall.
  for (MiningResult& part : subtree_) {
    for (PfciEntry& entry : part.itemsets) {
      result.itemsets.push_back(std::move(entry));
    }
    result.stats.MergeCounters(part.stats);
  }
  result.Sort();
}

void WorkStealingDfsFrontier::RestoreState(const SearchContext& ctx,
                                           const RunSnapshot& snapshot) {
  (void)ctx;
  candidates_.clear();
  candidate_pr_f_.clear();
  for (const WeightedItemset& element : snapshot.frontier) {
    candidates_.push_back(element.items[0]);
    candidate_pr_f_.push_back(element.weight);
  }
  restored_done_ = snapshot.done;
  restored_done_.resize(candidates_.size(), 0);
}

void WorkStealingDfsFrontier::SaveState(RunSnapshot& snapshot) const {
  snapshot.frontier.clear();
  snapshot.done.clear();
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    WeightedItemset element;
    element.items = Itemset{candidates_[c]};
    element.weight = candidate_pr_f_[c];
    snapshot.frontier.push_back(std::move(element));
    const bool was_done =
        restored_done_.size() == candidates_.size() && restored_done_[c] != 0;
    const bool now_done = done_.size() == candidates_.size() && done_[c] != 0;
    snapshot.done.push_back(was_done || now_done ? 1 : 0);
  }
}

// ---------------------------------------------------------------------------
// LevelSyncBfsFrontier

void LevelSyncBfsFrontier::BuildCandidates(const SearchContext& ctx,
                                           MiningResult& result) {
  for (Item item : ctx.index->occurring_items()) {
    LevelEntry entry;
    entry.items = Itemset{item};
    entry.tids = ctx.index->TidsOfItem(item);
    QualifyRequest req;
    req.threshold = ctx.params->pfct;
    const Qualification q = ctx.oracle->Qualify(entry.tids, req, &result.stats);
    entry.pr_f = q.pr_f;
    if (q.admitted) level_.push_back(std::move(entry));
  }
}

void LevelSyncBfsFrontier::Search(const SearchContext& ctx,
                                  MiningResult& result) {
  const MiningParams& params = *ctx.params;
  RunController& rt = ctx.rt;
  // Logical budgets, consumed in global level order (entry_counter
  // order) so the truncation point is a pure function of the request.
  WorkUnitBudget node_ledger = rt.UnitBudget(0, 1);
  std::uint64_t samples_remaining = node_ledger.sample_quota;

  // Global position of the first entry of the current level across the
  // whole run (a member, restored on resume); the per-entry RNG stream
  // is derived from it, so it is independent of thread count and
  // scheduling.
  while (!level_.empty()) {
    // Level-boundary checkpoint: a global stop discards the pending
    // level (none of its entries were evaluated yet). A pending drain
    // breaks here too — the level boundary is the suspend-mode unit
    // boundary, and the intact level_ becomes the snapshot frontier.
    PFCI_FAILPOINT("bfs/level");
    if (rt.Checkpoint()) break;
    if (DrainPending(rt)) break;

    // Node budget, taken in level order: a refusal cuts the level's
    // suffix — and, since the quota never regrows, the whole run.
    std::size_t eval_count = level_.size();
    for (std::size_t i = 0; i < level_.size(); ++i) {
      if (!node_ledger.TakeNode()) {
        eval_count = i;
        rt.RecordTruncation(Outcome::kBudgetExhausted);
        break;
      }
    }
    result.stats.nodes_visited += eval_count;
    if (ctx.exec->progress != nullptr && eval_count > 0) {
      ctx.exec->progress->AddNodes(eval_count);
    }

    // Per-entry sample quotas: each entry's RNG stream is independent
    // (seeded by its global position), so the remaining sample budget is
    // pre-split fair-share across the level — an entry whose evaluation
    // is refused stays undecided without disturbing its neighbours.
    std::vector<WorkUnitBudget> units(eval_count);
    if (samples_remaining != kUnlimitedQuota) {
      for (std::size_t i = 0; i < eval_count; ++i) {
        units[i].sample_quota = UnitQuota(samples_remaining, i, eval_count);
      }
    }

    // Evaluate the (budgeted prefix of the) level in parallel; commit in
    // level order.
    std::vector<FcpComputation> comps(eval_count);
    std::vector<MiningStats> comp_stats(eval_count);
    const auto evaluate = [&](std::size_t i) {
      Rng rng(DeriveSeed(params.seed, entry_counter_ + i));
      comps[i] = ctx.engine->EvaluateAt(
          params.pfct, level_[i].items, level_[i].tids, level_[i].pr_f, rng,
          &comp_stats[i], &units[i]);
    };
    ParallelFor(ctx.exec->pool, eval_count, evaluate);
    entry_counter_ += level_.size();

    std::uint64_t level_samples = 0;
    for (std::size_t i = 0; i < eval_count; ++i) {
      level_samples += units[i].samples_used;
    }
    rt.NoteUnitWork(eval_count, level_samples);

    for (std::size_t i = 0; i < eval_count; ++i) {
      if (samples_remaining != kUnlimitedQuota) {
        samples_remaining -= units[i].samples_used;
        if (units[i].truncated) {
          rt.RecordTruncation(Outcome::kBudgetExhausted);
        }
      }
      result.stats.MergeCounters(comp_stats[i]);
      const FcpComputation& comp = comps[i];
      if (comp.undecided) continue;
      if (!comp.is_pfci) continue;
      result.itemsets.push_back(MakePfciEntry(level_[i].items, comp));
      if (ctx.exec->progress != nullptr) ctx.exec->progress->AddItemsets();
    }
    // An exhausted node quota never regrows: later levels would all be
    // refused, so stop generating them.
    if (node_ledger.truncated) break;

    // Generate level k+1 by prefix join (entries are sorted because the
    // construction preserves lexicographic order).
    std::vector<LevelEntry> next_level;
    for (std::size_t a = 0; a < level_.size(); ++a) {
      const auto& ia = level_[a].items.items();
      for (std::size_t b = a + 1; b < level_.size(); ++b) {
        const auto& ib = level_[b].items.items();
        if (!std::equal(ia.begin(), ia.end() - 1, ib.begin(), ib.end() - 1)) {
          break;  // Joinable partners are contiguous.
        }
        ++result.stats.intersections;
        QualifyRequest req;
        req.threshold = params.pfct;
        // Count before building: a join below the support-count floor
        // materializes nothing.
        const std::size_t count =
            IntersectSize(level_[a].tids, level_[b].tids);
        if (!ctx.oracle->PassesCountFloor(count, req, &result.stats)) {
          continue;
        }
        LevelEntry child;
        child.items = level_[a].items.WithItem(ib.back());
        child.tids = Intersect(level_[a].tids, level_[b].tids, count);
        const Qualification q =
            ctx.oracle->Qualify(child.tids, req, &result.stats);
        child.pr_f = q.pr_f;
        if (q.admitted) next_level.push_back(std::move(child));
      }
    }
    level_.swap(next_level);
  }
}

void LevelSyncBfsFrontier::Merge(const SearchContext& ctx,
                                 MiningResult& result) {
  (void)ctx;
  result.Sort();
}

void LevelSyncBfsFrontier::RestoreState(const SearchContext& ctx,
                                        const RunSnapshot& snapshot) {
  level_.clear();
  for (const WeightedItemset& element : snapshot.frontier) {
    LevelEntry entry;
    entry.items = element.items;
    // Counts no intersections: the suspended run counted the ops that
    // first built this tid-list, and they arrive in the snapshot base.
    entry.tids = ctx.index->TidsOf(element.items);
    entry.pr_f = element.weight;
    level_.push_back(std::move(entry));
  }
  entry_counter_ = snapshot.cursor;
}

void LevelSyncBfsFrontier::SaveState(RunSnapshot& snapshot) const {
  snapshot.frontier.clear();
  for (const LevelEntry& entry : level_) {
    WeightedItemset element;
    element.items = entry.items;
    element.weight = entry.pr_f;
    snapshot.frontier.push_back(std::move(element));
  }
  snapshot.cursor = entry_counter_;
}

// ---------------------------------------------------------------------------
// TopKFrontier

bool TopKFrontier::RanksBefore(const PfciEntry& a, const PfciEntry& b) {
  if (a.fcp != b.fcp) return a.fcp > b.fcp;
  return a.items < b.items;
}

double TopKFrontier::Threshold(double floor) const {
  if (top_.size() < k_) return floor;
  return std::max(floor, std::nextafter(worst_in_top_, 0.0));
}

std::size_t TopKFrontier::WeakestPos() const {
  std::size_t weakest = 0;
  for (std::size_t i = 1; i < top_.size(); ++i) {
    if (!RanksBefore(top_[i], top_[weakest])) weakest = i;
  }
  return weakest;
}

void TopKFrontier::RecomputeWorst() {
  if (top_.empty()) return;  // k == 0: threshold stays at its seed.
  worst_in_top_ = top_.front().fcp;
  for (const PfciEntry& entry : top_) {
    worst_in_top_ = std::min(worst_in_top_, entry.fcp);
  }
}

void TopKFrontier::Offer(PfciEntry entry) {
  if (top_.size() < k_) {
    top_.push_back(std::move(entry));
    if (top_.size() == k_) RecomputeWorst();
    return;
  }
  if (top_.empty()) return;  // k == 0 mines nothing.
  // Evict the weakest entry iff the candidate outranks it under the
  // output order — at equal FCP the lexicographically smaller itemset
  // wins, exactly as in the final sort.
  const std::size_t weakest = WeakestPos();
  if (!RanksBefore(entry, top_[weakest])) return;
  top_[weakest] = std::move(entry);
  RecomputeWorst();
}

void TopKFrontier::BuildCandidates(const SearchContext& ctx,
                                   MiningResult& result) {
  for (Item item : ctx.index->occurring_items()) {
    // The floor threshold is the only sound candidate filter here (the
    // dynamic threshold starts at the floor and only rises), so the
    // oracle runs bound-stages only: no counted floor, no exact check.
    QualifyRequest req;
    req.threshold = ctx.params->pfct;
    req.count_floor = false;
    req.exact_check = false;
    if (ctx.oracle->Qualify(ctx.index->TidsOfItem(item), req, &result.stats)
            .admitted) {
      candidates_.push_back(item);
    }
  }
}

void TopKFrontier::Search(const SearchContext& ctx, MiningResult& result) {
  const double floor = ctx.params->pfct;
  // The whole search shares one RNG, so the run is a single logical work
  // unit: after any truncation nothing further may be evaluated, or
  // later estimates would read a shifted stream. On resume the stream
  // continues from the suspended run's exact state (suspend mode drains
  // at candidate boundaries, so the state is a candidate-boundary state).
  Rng rng(ctx.params->seed);
  if (have_rng_state_) rng.RestoreState(rng_state_);
  WorkUnitBudget unit = ctx.rt.UnitBudget(0, 1);

  const std::vector<LiveItem> roots =
      RootLiveItems(*ctx.index, ctx.freq->min_sup(), candidates_);
  ClosedDfsContext dfs;
  dfs.ctx = &ctx;
  dfs.candidates = &candidates_;
  dfs.stats = &result.stats;
  dfs.rng = &rng;
  dfs.unit = &unit;
  dfs.failpoint = "topk/node";
  dfs.count_floor = false;
  dfs.threshold = [this, floor] { return Threshold(floor); };
  dfs.emit = [this](PfciEntry entry) { Offer(std::move(entry)); };

  std::size_t c = next_candidate_;
  for (; c < candidates_.size() && !(unit.truncated || ctx.rt.StopRequested());
       ++c) {
    if (DrainPending(ctx.rt)) break;
    const std::uint64_t nodes_before = result.stats.nodes_visited;
    const std::uint64_t samples_before = result.stats.total_samples;
    const Item item = candidates_[c];
    const TidSet& tids = ctx.index->TidsOfItem(item);
    const double pr_f = ctx.freq->PrF(tids);
    if (pr_f > Threshold(floor)) {
      ClosedDfs(dfs, Itemset{item}, tids, pr_f, roots);
    }
    ctx.rt.NoteUnitWork(result.stats.nodes_visited - nodes_before,
                        result.stats.total_samples - samples_before);
  }
  next_candidate_ = c;
  rng_state_ = rng.SaveState();
  have_rng_state_ = true;
  if (unit.truncated) ctx.rt.RecordTruncation(Outcome::kBudgetExhausted);
}

void TopKFrontier::Merge(const SearchContext& ctx, MiningResult& result) {
  (void)ctx;
  // Descending FCP, ties resolved by itemset order for determinism.
  std::sort(top_.begin(), top_.end(), RanksBefore);
  result.itemsets = std::move(top_);
}

void TopKFrontier::RestoreState(const SearchContext& ctx,
                                const RunSnapshot& snapshot) {
  (void)ctx;
  candidates_.clear();
  for (const WeightedItemset& element : snapshot.frontier) {
    candidates_.push_back(element.items[0]);
  }
  // The pool rides in the snapshot's entries (Merge moves it into the
  // result at the end of every session, suspended or not, replacing the
  // entries the driver seeded).
  top_ = snapshot.entries;
  if (k_ > 0 && top_.size() >= k_) RecomputeWorst();
  next_candidate_ = static_cast<std::size_t>(snapshot.cursor);
  if (snapshot.has_rng) {
    rng_state_ = snapshot.rng;
    have_rng_state_ = true;
  }
}

void TopKFrontier::SaveState(RunSnapshot& snapshot) const {
  snapshot.frontier.clear();
  for (Item item : candidates_) {
    WeightedItemset element;
    element.items = Itemset{item};
    snapshot.frontier.push_back(std::move(element));
  }
  snapshot.cursor = next_candidate_;
  if (have_rng_state_) {
    snapshot.has_rng = true;
    snapshot.rng = rng_state_;
  }
}

// ---------------------------------------------------------------------------
// FlatCheckFrontier (Naive)

void FlatCheckFrontier::BuildCandidates(const SearchContext& ctx,
                                        MiningResult& result) {
  // Stage 1 of Fig. 5: all probabilistic frequent itemsets, over the
  // run's own index and evaluator. The strawman always qualifies with
  // the Lemma 4.1 bound on, whatever params.pruning.chernoff says. The
  // node budget is consumed here (the PFI enumeration is the run's
  // search tree); in suspend mode the whole stage is one unit, noted
  // into the budget before the checks fan out.
  const CandidateOracle oracle(*ctx.freq, /*use_chernoff=*/true);
  const std::uint64_t nodes_before = result.stats.nodes_visited;
  pfis_ = EnumeratePfis(*ctx.index, PrFAbove(oracle, ctx.params->pfct),
                        ctx.params->min_sup, &result.stats, ctx.rt);
  enumerated_nodes_ = result.stats.nodes_visited - nodes_before;
}

void FlatCheckFrontier::Search(const SearchContext& ctx,
                               MiningResult& result) {
  (void)result;
  const MiningParams& params = *ctx.params;
  RunController& rt = ctx.rt;
  // Stage 2: check each PFI's frequent closed probability by sampling.
  // Independent per PFI, so the checks fan out over the pool; the i-th
  // check's RNG derives from (seed, i), and results merge in PFI order,
  // keeping the output identical for any thread count. The batch-level
  // parallelism inside ApproxFcp is left off here — one task per PFI is
  // already finer-grained than the pool.
  checks_.resize(pfis_.size());
  // Each check's RNG stream is independent, so the sample budget is
  // pre-split fair-share across the checks: a refused check stays
  // undecided (unemitted) without disturbing its neighbours' streams.
  undecided_.assign(pfis_.size(), 0);
  rt.NoteUnitWork(enumerated_nodes_, 0);
  const auto check = [&](std::size_t i) {
    if (restored_done_.size() == pfis_.size() && restored_done_[i]) return;
    PFCI_FAILPOINT("naive/check");
    if (rt.Checkpoint()) {
      undecided_[i] = 1;
      return;
    }
    // Suspend-mode drain: checks not yet started stay undecided and land
    // in the snapshot as pending; in-flight checks run to completion.
    if (DrainPending(rt)) {
      undecided_[i] = 1;
      return;
    }
    Rng rng(DeriveSeed(params.seed, i));
    const ExtensionEventSet events(*ctx.index, *ctx.freq, pfis_[i].items,
                                   pfis_[i].tids);
    if (events.size() > 0) {
      WorkUnitBudget unit = rt.UnitBudget(i, pfis_.size());
      if (!unit.TakeSamples(KarpLubyRequiredSamples(
              events.size(), params.epsilon, params.delta))) {
        undecided_[i] = 1;
        rt.RecordTruncation(Outcome::kBudgetExhausted);
        return;
      }
    }
    checks_[i] = ApproxFcp(pfis_[i].pr_f, events, params.epsilon,
                           params.delta, rng, /*pool=*/nullptr, &rt);
    if (checks_[i].aborted) undecided_[i] = 1;
    rt.NoteUnitWork(0, checks_[i].samples);
    if (ctx.exec->progress != nullptr) ctx.exec->progress->AddNodes();
  };
  ParallelFor(ctx.exec->pool, pfis_.size(), check);
}

void FlatCheckFrontier::Merge(const SearchContext& ctx, MiningResult& result) {
  for (std::size_t i = 0; i < pfis_.size(); ++i) {
    // Checks decided by a prior session were counted and emitted there;
    // their entries and counters arrived through the snapshot base.
    if (restored_done_.size() == pfis_.size() && restored_done_[i]) continue;
    if (undecided_[i]) continue;
    const ApproxFcpResult& approx = checks_[i];
    ++result.stats.sampled_fcp_computations;
    result.stats.total_samples += approx.samples;
    if (approx.fcp > ctx.params->pfct) {
      PfciEntry entry;
      entry.items = pfis_[i].items;
      entry.fcp = approx.fcp;
      entry.pr_f = pfis_[i].pr_f;
      entry.fcp_upper = pfis_[i].pr_f;
      entry.method = FcpMethod::kSampled;
      result.itemsets.push_back(std::move(entry));
      if (ctx.exec->progress != nullptr) ctx.exec->progress->AddItemsets();
    }
  }
  result.Sort();
}

void FlatCheckFrontier::RestoreState(const SearchContext& ctx,
                                     const RunSnapshot& snapshot) {
  pfis_.clear();
  for (const WeightedItemset& element : snapshot.frontier) {
    PfiEntry entry;
    entry.items = element.items;
    entry.pr_f = element.weight;
    // Counts no intersections: the suspended run counted the ops that
    // first built this tid-list, and they arrive in the snapshot base.
    entry.tids = ctx.index->TidsOf(element.items);
    pfis_.push_back(std::move(entry));
  }
  restored_done_ = snapshot.done;
  restored_done_.resize(pfis_.size(), 0);
  enumerated_nodes_ = 0;  // This session did not enumerate.
}

void FlatCheckFrontier::SaveState(RunSnapshot& snapshot) const {
  snapshot.frontier.clear();
  snapshot.done.clear();
  for (std::size_t i = 0; i < pfis_.size(); ++i) {
    WeightedItemset element;
    element.items = pfis_[i].items;
    element.weight = pfis_[i].pr_f;
    snapshot.frontier.push_back(std::move(element));
    const bool was_done =
        restored_done_.size() == pfis_.size() && restored_done_[i] != 0;
    const bool decided_now =
        undecided_.size() == pfis_.size() && undecided_[i] == 0;
    snapshot.done.push_back(was_done || decided_now ? 1 : 0);
  }
}

}  // namespace pfci
