#include "src/core/fcp_engine.h"

#include <algorithm>

#include "src/core/fcp_exact.h"
#include "src/core/fcp_sampler.h"
#include "src/prob/inclusion_exclusion.h"
#include "src/prob/karp_luby.h"

namespace pfci {

namespace {

/// Bounds closer than this are treated as having met ("upper == lower" in
/// the paper's Fig. 3, line 9).
constexpr double kBoundsMeetTolerance = 1e-12;

}  // namespace

PfciEntry MakePfciEntry(const Itemset& x, const FcpComputation& comp) {
  PfciEntry entry;
  entry.items = x;
  entry.fcp = comp.fcp;
  entry.pr_f = comp.pr_f;
  entry.fcp_lower = comp.bounds_computed ? comp.bounds.lower : 0.0;
  entry.fcp_upper = comp.bounds_computed ? comp.bounds.upper : comp.pr_f;
  entry.method = comp.method;
  return entry;
}

FcpEngine::FcpEngine(const VerticalIndex& index,
                     const FrequentProbability& freq,
                     const MiningParams& params, const ExecutionContext& exec)
    : index_(&index), freq_(&freq), params_(params), exec_(exec) {
  if (exec_.runtime == nullptr) exec_.runtime = &unlimited_;
}

FcpComputation FcpEngine::Evaluate(const Itemset& x, const TidSet& tids,
                                   double pr_f, Rng& rng, MiningStats* stats,
                                   WorkUnitBudget* unit) const {
  return EvaluateInternal(x, tids, pr_f, params_.pfct, rng, stats, unit,
                          /*event_items=*/nullptr);
}

FcpComputation FcpEngine::EvaluateAt(
    double threshold, const Itemset& x, const TidSet& tids, double pr_f,
    Rng& rng, MiningStats* stats, WorkUnitBudget* unit,
    const std::vector<EventItem>* event_items) const {
  return EvaluateInternal(x, tids, pr_f, threshold, rng, stats, unit,
                          event_items);
}

FcpComputation FcpEngine::ComputeFcp(const Itemset& x, Rng& rng) const {
  const TidSet tids = index_->TidsOf(x);
  const double pr_f = freq_->PrF(tids);
  // pfct = -1 disables every threshold-based early exit.
  return EvaluateInternal(x, tids, pr_f, -1.0, rng, nullptr, nullptr,
                          nullptr);
}

FcpComputation FcpEngine::EvaluateInternal(
    const Itemset& x, const TidSet& tids, double pr_f, double pfct, Rng& rng,
    MiningStats* stats, WorkUnitBudget* unit,
    const std::vector<EventItem>* event_items) const {
  FcpComputation out;
  out.pr_f = pr_f;
  // PrFC <= PrF: an infrequent itemset can never qualify.
  if (pr_f <= pfct) {
    out.is_pfci = false;
    return out;
  }

  const ExtensionEventSet events(*index_, *freq_, x, tids, stats,
                                 event_items);

  // Lemmas 4.2/4.3 endgame: a same-count superset forces PrFC(X) = 0.
  if (events.HasSameCountExtension()) {
    out.fcp = 0.0;
    out.method = FcpMethod::kZeroByCount;
    out.is_pfci = false;
    if (stats != nullptr) ++stats->zero_by_count;
    return out;
  }

  if (params_.pruning.fcp_bounds) {
    out.bounds = ComputeFcpBounds(pr_f, events);
    out.bounds_computed = true;
    if (out.bounds.upper <= pfct) {
      out.fcp = out.bounds.upper;
      out.method = FcpMethod::kBoundsDecided;
      out.is_pfci = false;
      if (stats != nullptr) ++stats->decided_by_bounds;
      return out;
    }
    if (out.bounds.upper - out.bounds.lower < kBoundsMeetTolerance) {
      out.fcp = 0.5 * (out.bounds.upper + out.bounds.lower);
      out.method = FcpMethod::kBoundsDecided;
      out.is_pfci = out.fcp > pfct;
      if (stats != nullptr) ++stats->decided_by_bounds;
      return out;
    }
  }

  // Deadline degradation (DESIGN.md §10): once the run has burned the
  // degrade fraction of its deadline, exact inclusion-exclusion — whose
  // cost is exponential in the event count — gives way to the sampler so
  // the remaining wall-clock buys more decided itemsets.
  const bool exact_eligible =
      !params_.force_sampling && events.size() <= params_.exact_event_limit &&
      events.size() <= kMaxInclusionExclusionEvents;
  const bool degraded = exact_eligible && exec_.runtime->ShouldDegradeFcp();
  if (exact_eligible && !degraded) {
    out.fcp = ExactFcpByInclusionExclusion(pr_f, events);
    out.method = FcpMethod::kExact;
    if (stats != nullptr) ++stats->exact_fcp_computations;
  } else {
    // Pre-claim the full Karp-Luby sample requirement from the logical
    // ledger so an estimate is complete or never attempted. A refusal
    // leaves `rng` untouched (the sampler never runs), so everything the
    // unit emitted before this point matches an unbudgeted run
    // bit-for-bit; the caller must then wind the unit down.
    if (unit != nullptr && events.size() > 0 &&
        !unit->TakeSamples(KarpLubyRequiredSamples(
            events.size(), params_.epsilon, params_.delta))) {
      out.undecided = true;
      return out;
    }
    const ApproxFcpResult approx =
        ApproxFcp(pr_f, events, params_.epsilon, params_.delta, rng,
                  exec_.pool, exec_.runtime);
    if (approx.aborted) {
      // A global stop interrupted the batches: the estimate carries no
      // FPRAS guarantee, so the itemset stays undecided and unemitted.
      out.undecided = true;
      return out;
    }
    out.fcp = approx.fcp;
    out.samples = approx.samples;
    out.method = FcpMethod::kSampled;
    if (out.bounds_computed) {
      out.fcp = std::clamp(out.fcp, out.bounds.lower, out.bounds.upper);
    }
    if (stats != nullptr) {
      ++stats->sampled_fcp_computations;
      stats->total_samples += approx.samples;
      if (degraded) ++stats->degraded_fcp_evals;
    }
  }
  out.is_pfci = out.fcp > pfct;
  return out;
}

}  // namespace pfci
