// Frequent itemset enumeration — the kernel's flat (non-closed) search
// primitive.
//
// Enumerates every itemset a frequentness measure admits by a sequential
// depth-first walk. The measures in use — PrF(X) > pft (Definition 3.5),
// a distributional approximation of it, and the expected support of the
// U-Apriori model [9] — are anti-monotone (the approximation only
// roughly), so one enumeration is complete for each; only a measure that
// vouches for a rejection lets the walk drop the rejected itemset from
// its siblings' extensions. The walk is generic over the node cover: Tids(X)
// for the tuple model (VerticalIndex), X's containment probabilities for
// the item model (ItemColumns). Over tid-sets it counts before it
// builds: a measure with a support-count floor (Definition 3.4) has each
// extension's |Tids(X) ∩ Tids(e)| decided by IntersectSize before Extend
// materializes Tids(X+e), as ClosedDfs does, so the candidates the floor
// rejects cost one popcount pass and no allocation. This is the engine
// behind the PFI baseline miner, the approximate PFI miner, the
// expected-support miners of both models, the item-level PFI miner and
// the candidate stage of the Naive checker (Fig. 5); it lives in the
// kernel so frontier policies can call it without depending on any
// miner entry point.
#ifndef PFCI_CORE_SEARCH_PFI_ENUMERATION_H_
#define PFCI_CORE_SEARCH_PFI_ENUMERATION_H_

#include <cstddef>
#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "src/core/execution.h"
#include "src/core/frequent_probability.h"
#include "src/core/index_handle.h"
#include "src/core/mining_result.h"
#include "src/core/search/candidate_oracle.h"
#include "src/data/tidset.h"
#include "src/data/uncertain_database.h"
#include "src/data/vertical_index.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/runtime.h"

namespace pfci {

/// One probabilistic frequent itemset with its frequent probability and
/// tid-list (kept so downstream checkers need not recompute it).
struct PfiEntry {
  Itemset items;
  double pr_f = 0.0;
  TidSet tids;

  friend bool operator<(const PfiEntry& a, const PfiEntry& b) {
    return a.items < b.items;
  }
};

/// A frequentness measure's verdict on X: its value when the measure
/// admits X, nullopt when it does not. A measure whose value never rises
/// from X to a superset (anti-monotone, up to rounding far inside
/// kSiblingMargin) may also declare that a rejection rejects every
/// superset of X; EnumerateFrequent then drops X's last item from its
/// siblings' extension lists. A measure that cannot vouch for that, such
/// as a distributional approximation, leaves it false.
struct MeasureVerdict {
  // Implicit, so a measure may simply return its optional value.
  MeasureVerdict(std::optional<double> value = std::nullopt,  // NOLINT
                 bool rejects_supersets = false)
      : value(value), rejects_supersets(rejects_supersets) {}

  std::optional<double> value;
  bool rejects_supersets;
};

/// A frequentness measure: evaluates X given its cover. A rejection bumps
/// the measure's own pruning counters in `stats` (may be null).
template <typename Cover>
using FrequentnessMeasure =
    std::function<MeasureVerdict(const Cover& cover, MiningStats* stats)>;

/// Receives each admitted itemset with its cover and measure value.
template <typename Cover>
using FrequentEmit = std::function<void(const Itemset& items,
                                        const Cover& cover, double value)>;

/// Enumerates, depth-first, every itemset over `covers` that `measure`
/// admits, passing each to `emit` in visit order. `Covers` is
/// VerticalIndex or ItemColumns; each extension is one `covers.Extend`,
/// dispatched at compile time. `count_floor` (0 = none; tid-set covers
/// only) is the measure's own support-count floor, decided first: an
/// extension whose IntersectSize falls below it is rejected without
/// Extend and counted as one intersection and one pruned_by_frequency,
/// the counts the measure's rejection would have made. A node qualifies
/// all its extensions before descending into any, and a child X+e then
/// extends only with the siblings X+e' that were not rejected for every
/// superset (the count floor, or a verdict's rejects_supersets): X+e+e'
/// would be rejected too. The caller owns the covers and evaluators: it
/// charges the covers to the memory budget, checkpoints before calling,
/// and folds the evaluator's work counters. `failpoint` names the
/// node-expansion site; `stats` (optional) accumulates node,
/// intersection and pruning counters. The DFS polls `rt` at node
/// expansion and winds down with a verified prefix when a limit trips.
template <typename Covers>
void EnumerateFrequent(
    const Covers& covers,
    const FrequentnessMeasure<typename Covers::Cover>& measure,
    std::size_t count_floor, const char* failpoint, MiningStats* stats,
    RunController& rt, const FrequentEmit<typename Covers::Cover>& emit) {
  using Cover = typename Covers::Cover;
  constexpr bool kTidSetCovers = std::is_same_v<Cover, TidSet>;
  PFCI_DCHECK(count_floor == 0 || kTidSetCovers);
  // Sequential enumeration: one logical work unit owns the whole budget.
  WorkUnitBudget unit = rt.UnitBudget(0, 1);
  // Whether the run should wind down (budget cut or global stop).
  const auto stopped = [&] { return unit.truncated || rt.StopRequested(); };

  std::vector<Item> candidates;
  if (!rt.StopRequested()) {
    for (Item item : covers.occurring_items()) {
      const Cover& cover = covers.CoverOf(item);
      if (const std::optional<double> value = measure(cover, stats).value) {
        candidates.push_back(item);
        emit(Itemset{item}, cover, *value);
      }
    }
  }

  // An admitted child of a node, waiting for its descent. A tid-set
  // cover is rebuilt then from its count (holding every admitted
  // sibling's tid-set down the path would raise the peak footprint); a
  // containment list has no cheap rebuild and is kept.
  struct Child {
    std::size_t kept_pos;  ///< Its position in the node's `kept` list.
    double value;
    std::size_t count;  ///< |cover| (tid-set covers).
    Cover cover;        ///< The cover itself (containment lists).
  };

  // `extensions`: positions in `candidates`, ascending, that X may extend
  // with (owned by X's parent, which outlives the call).
  const auto dfs = [&](const auto& self, const Itemset& x, const Cover& cover,
                       std::span<const std::size_t> extensions) {
    // Node-expansion checkpoint: itemsets emit before recursing, so
    // cutting here leaves a verified prefix of the answer.
    PFCI_FAILPOINT(failpoint);
    if (rt.Checkpoint() || !unit.TakeNode()) return;
    if (stats != nullptr) ++stats->nodes_visited;
    std::vector<std::size_t> kept;  // What X's children may extend with.
    std::vector<Child> children;
    for (const std::size_t c : extensions) {
      if (stopped()) return;
      const Item item = candidates[c];
      if (stats != nullptr) ++stats->intersections;
      Cover child_cover;
      if constexpr (kTidSetCovers) {
        // Count before building: Tids(X+item) is materialized only once
        // it passes the count floor.
        if (count_floor == 0) {
          child_cover = covers.Extend(cover, item);
        } else {
          const std::size_t count =
              IntersectSize(cover, covers.CoverOf(item));
          if (count < count_floor) {
            if (stats != nullptr) ++stats->pruned_by_frequency;
            continue;
          }
          child_cover = covers.Extend(cover, item, count);
        }
      } else {
        child_cover = covers.Extend(cover, item);
      }
      const MeasureVerdict verdict = measure(child_cover, stats);
      if (verdict.value.has_value()) {
        Child child{kept.size(), *verdict.value, 0, {}};
        if constexpr (kTidSetCovers) {
          child.count = child_cover.size();
        } else {
          child.cover = std::move(child_cover);
        }
        children.push_back(std::move(child));
      } else if (verdict.rejects_supersets) {
        continue;
      }
      kept.push_back(c);
    }
    for (Child& child : children) {
      if (stopped()) return;
      const Item item = candidates[kept[child.kept_pos]];
      Cover child_cover;
      if constexpr (kTidSetCovers) {
        child_cover = covers.Extend(cover, item, child.count);
      } else {
        child_cover = std::move(child.cover);
      }
      const Itemset child_x = x.WithItem(item);
      emit(child_x, child_cover, child.value);
      self(self, child_x, child_cover,
           std::span<const std::size_t>(kept).subspan(child.kept_pos + 1));
    }
  };
  // The admitted singletons seed the depth-first extension, each with
  // every later singleton.
  std::vector<std::size_t> all(candidates.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (std::size_t s = 0; s < candidates.size() && !stopped(); ++s) {
    dfs(dfs, Itemset{candidates[s]}, covers.CoverOf(candidates[s]),
        std::span<const std::size_t>(all).subspan(s + 1));
  }
  if (unit.truncated) rt.RecordTruncation(Outcome::kBudgetExhausted);
}

/// The exact PFI measure: PrF(X) > pft, qualified through `oracle`.
FrequentnessMeasure<TidSet> PrFAbove(const CandidateOracle& oracle,
                                     double pft);

/// The expected-support measure of U-Apriori [9]: esup(X) >= min_esup,
/// evaluated through `freq` (so a session's cache answers it exactly).
/// A rejection counts as pruned_by_frequency.
FrequentnessMeasure<TidSet> ExpectedSupportAtLeast(
    const FrequentProbability& freq, double min_esup);

/// The PFIs under `measure` (PrFAbove or an approximation of it, whose
/// count floor is min_sup): every admitted itemset with its tid-set,
/// sorted canonically. Node site "pfi/node". For the callers that need
/// the tid-sets: the Naive checker's candidate stage and
/// internal::MinePfiApproximate.
std::vector<PfiEntry> EnumeratePfis(
    const VerticalIndex& index, const FrequentnessMeasure<TidSet>& measure,
    std::size_t min_sup, MiningStats* stats, RunController& rt);

/// The one run setup of the tuple-level flat miners: borrows or builds
/// the index (charged to the run's memory budget) and the evaluator,
/// checkpoints so an undersized budget fails before any search work,
/// runs `enumerate(index, freq, rt)`, and folds the evaluator's work
/// counters into `stats`. `exec.runtime` must be set. Returns what
/// `enumerate` returns.
template <typename Enumerate>
auto RunFlatEnumeration(const UncertainDatabase& db, TidSetMode mode,
                        std::size_t min_sup, MiningStats* stats,
                        const ExecutionContext& exec,
                        Enumerate&& enumerate) {
  const IndexHandle index(db, mode, exec);
  const FrequentProbability freq(index.get(), min_sup, exec.eval_cache);
  exec.runtime->Checkpoint();
  auto result = enumerate(index.get(), freq, *exec.runtime);
  if (stats != nullptr) freq.AddCountersTo(*stats);
  return result;
}

}  // namespace pfci

#endif  // PFCI_CORE_SEARCH_PFI_ENUMERATION_H_
