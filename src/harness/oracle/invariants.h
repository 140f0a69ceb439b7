// Differential + metamorphic invariant catalog (DESIGN.md §13).
//
// One entry point, CheckDatabase, drives every algorithm reachable
// through Mine() over one database and cross-checks:
//
//   * cross-algorithm agreement — MPFCI vs BFS vs Naive vs TopK vs PFI
//     (plus the esup / esup-fp pair), each at the tolerance its
//     evaluation path earns: exact paths at 1e-9 absolute, the Naive
//     baseline's Karp-Luby stage at its statistical tolerance;
//   * possible-world ground truth — small databases replayed through
//     Algorithm::kBruteForce (Definitions 3.4-3.8 computed by explicit
//     enumeration);
//   * metamorphic invariants derived from the paper — the result set is
//     anti-monotone in pfct (Definition 3.8's strict comparison), PrF
//     per itemset and the PFI set are anti-monotone in min_sup
//     (Corollary 4.1), every reported itemset is a fixed point of the
//     certain closure over its tid-set (closure idempotence: an itemset
//     extendable at equal count is closed in no world, Lemma 4.2), and
//     top-k is a fcp-ranked prefix of the full answer;
//   * representation / execution invariance — transaction permutation
//     (1e-9: the DP's summation order moves), tid-set mode, thread
//     count, repeated runs, session eval-cache on/off and warm replay
//     (all bit-identical per the determinism contract), the streaming
//     window path (a full window must equal direct mining), and
//     checkpoint/resume replay (a budget-suspended run resumed from its
//     snapshot must equal the uninterrupted run, counters included);
//   * pruning-toggle invariance — each pruning rule (Lemma 4.1
//     Chernoff, 4.2 superset, 4.3 subset, 4.4 fcp-bounds) disabled
//     individually must not change the answer (the paper's Table VII
//     variants). The bounds-off run doubles as the catalog's
//     high-precision reference: its fcp values are exact points, so it
//     is compared at 1e-9 against the reference, the brute-force ground
//     truth, and the Naive baseline — interval-only comparison would
//     let value corruption hide behind bounds-decided entries.
//
// Every violated invariant comes back as an OracleFinding carrying the
// exact MiningRequest that exposed it, ready for the shrinker.
#ifndef PFCI_HARNESS_ORACLE_INVARIANTS_H_
#define PFCI_HARNESS_ORACLE_INVARIANTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/mine.h"
#include "src/core/mining_params.h"
#include "src/data/uncertain_database.h"

namespace pfci {

/// Knobs of one oracle pass.
struct OracleOptions {
  /// Databases up to this many transactions are also checked against the
  /// possible-world enumerator (2^n worlds — keep it small).
  std::size_t brute_max_transactions = 10;

  /// Absolute tolerance for exact evaluation paths. Nonzero because
  /// equivalent runs may order the same floating-point sums differently
  /// (DFS vs BFS, permuted transactions).
  double exact_tolerance = 1e-9;

  /// Thread count compared against the single-thread run (bit-identical
  /// per the determinism contract).
  std::size_t alt_threads = 3;

  /// k for the top-k prefix invariant.
  std::size_t top_k = 3;

  /// Epsilon / delta for the Naive baseline's sampled stage. The
  /// membership and value tolerance granted to sampled results is
  /// derived from these (see SampledTolerance).
  double naive_epsilon = 0.05;
  double naive_delta = 0.02;

  /// Skips the Naive cross-check (its sample loops dominate the cost of
  /// a pass; fuzz drivers run it on a fraction of seeds).
  bool check_naive = true;

  /// Runs the session-binding checks (eval cache cold + warm) —
  /// bit-identical to the unbound run.
  bool check_session_cache = true;

  /// Runs the transaction-permutation invariance check.
  bool check_permutation = true;

  /// Runs the streaming-window consistency check.
  bool check_streaming = true;

  /// Runs the checkpoint/resume invariance check: a budget-suspended run
  /// whose snapshot is resumed must equal the uninterrupted run
  /// bit-for-bit, including the deterministic work counters (DESIGN.md
  /// §14). Writes one transient snapshot file under /tmp.
  bool check_resume = true;
};

/// One violated invariant: a stable check id ("cross/brute",
/// "invariance/threads", ...), a human-readable diagnosis, and the exact
/// request that exposed it (re-runnable with Mine(db, request)).
struct OracleFinding {
  std::string check;
  std::string detail;
  MiningRequest request;
};

/// Statistical tolerance granted to a Karp-Luby-sampled fcp estimate: a
/// 6-sigma envelope of the estimator's variance bound, in terms of the
/// sampler's epsilon and the number of distinct items (an upper bound on
/// the event count). Gross misestimates still fail; in-contract noise
/// does not.
double SampledTolerance(double epsilon, std::size_t num_items);

/// Runs the full catalog over `db` at `params` (params.exact_event_limit
/// should exceed the item count so exact paths stay exact). Returns every
/// violated invariant; empty means the database survived the catalog.
std::vector<OracleFinding> CheckDatabase(const UncertainDatabase& db,
                                         const MiningParams& params,
                                         const OracleOptions& options);

/// Renders findings one per line (check, detail) for logs and test
/// failure messages.
std::string FindingsToString(const std::vector<OracleFinding>& findings);

}  // namespace pfci

#endif  // PFCI_HARNESS_ORACLE_INVARIANTS_H_
