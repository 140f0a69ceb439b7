// BatchPlanner: shared-scan grouping of concurrent mining requests
// (DESIGN.md §15).
//
// Requests that differ only in min_sup share almost all of their work —
// the candidate-index build, the CandidateOracle::Qualify tid-set
// scans, and the Poisson-binomial tail tables are all computed over the
// same tidsets, and a tail table computed at threshold T answers every
// t <= T via the EvalCache's monotone reuse rule. The planner makes that
// sharing explicit: it partitions a batch into groups keyed by algorithm
// and orders each group's members by descending min_sup (stable), so the
// leader runs the highest threshold and every table it caches already
// answers everyone behind it. The tid-set mode does not split a group:
// cache entries are keyed by tid contents, so requests in different
// modes share them.
//
// Planning is pure and deterministic — same requests, same plan — and
// never changes results: grouping only decides who pays for shared DP
// work first, and cached values are bit-identical to cold computation.
#ifndef PFCI_SERVE_BATCH_PLANNER_H_
#define PFCI_SERVE_BATCH_PLANNER_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/core/mine.h"

namespace pfci {

/// One group of a planned batch: members share one algorithm, so one
/// shared pass serves all of them.
struct BatchGroup {
  /// Request indexes (positions in the planned span) in execution
  /// order: descending min_sup, ties in submission order. members[0] is
  /// the group leader — the highest threshold, whose run pays for the
  /// DP tables the others reuse.
  std::vector<std::size_t> members;
};

/// A planned batch: execution groups plus the requests rejected at plan
/// time. Every request index appears exactly once — either in one
/// group's members or in `invalid`.
struct BatchPlan {
  /// Groups in first-appearance order of their algorithm, so the plan
  /// is deterministic in the submission order.
  std::vector<BatchGroup> groups;

  /// Requests rejected before execution, with the validation diagnosis
  /// (parallel vectors; reasons lack the "invalid MiningRequest: "
  /// prefix — the executor stamps it, matching Mine()).
  std::vector<std::size_t> invalid;
  std::vector<std::string> invalid_reasons;

  /// Total requests planned (groups' members + invalid).
  std::size_t size = 0;
};

/// Plans `requests` into per-algorithm groups. A request that fails
/// ValidateRequest lands in `invalid` instead of a group.
BatchPlan PlanBatch(std::span<const MiningRequest> requests);

}  // namespace pfci

#endif  // PFCI_SERVE_BATCH_PLANNER_H_
