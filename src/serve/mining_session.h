// MiningSession: an amortized serving layer over one uncertain database
// (DESIGN.md §11).
//
// Mine() is a single-shot API: every call builds a VerticalIndex, runs,
// and throws all derived state away. A MiningSession amortizes that work
// across requests against the SAME database — the dominant serving
// pattern (threshold sweeps, parameter exploration, dashboards):
//
//   * the adaptive tid-set index is built once at Open() and shared by
//     every request (borrowed through ExecutionContext::shared_index); a
//     request that forces another tid-set mode builds its own index, as
//     a standalone Mine() does;
//   * per-tidset evaluation results (expected support mu, Poisson-
//     binomial tail tables) persist in a bounded EvalCache; a tail table
//     computed at one min_sup answers every smaller min_sup without
//     re-running the DP (monotonicity-aware reuse).
//
// Those two are the session's only reuse state. Determinism: session
// state never changes results. Cached values are bit-identical to what a
// cold run computes (see FrequentProbability and
// PoissonBinomialTailTable), and sampled FCP values are seed-derived per
// run and never cached. A session run differs from a cold run only in
// the work counters (dp_runs, cache_hits, cache_misses, dp_reused,
// cache_bytes).
//
// Beyond one-at-a-time Mine(), the session serves whole workloads
// (DESIGN.md §15): MineBatch() plans a set of requests into shared-scan
// groups (BatchPlanner) so compatible requests pay for DP tail tables
// once, highest threshold first, and Submit() runs one request
// asynchronously behind a RunHandle. Both compose with admission control
// and keep every per-request result bit-identical to a standalone Mine()
// of the same request.
//
// Thread safety: one session may serve concurrent Mine() calls; the
// cache is internally synchronized and the index is read-only.
// The database must outlive the session and stay unmodified.
#ifndef PFCI_SERVE_MINING_SESSION_H_
#define PFCI_SERVE_MINING_SESSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/eval_cache.h"
#include "src/core/mine.h"
#include "src/data/uncertain_database.h"
#include "src/data/vertical_index.h"
#include "src/serve/run_handle.h"
#include "src/util/stopwatch.h"

namespace pfci {

/// Knobs fixed at session open.
struct SessionOptions {
  /// Byte budget of the evaluation cache (LRU-evicted). 0 disables the
  /// cache entirely (runs still share the prepared index).
  std::size_t cache_bytes = std::size_t{64} << 20;

  /// Lock shards of the evaluation cache (>= 1 when the cache is on).
  std::size_t cache_shards = 8;

  /// Admission control (DESIGN.md §14): maximum number of concurrently
  /// executing runs (Mine(), Submit(), and MineBatch members). 0 disables admission control
  /// (every request runs immediately). A request arriving with
  /// max_inflight runs already executing is queued if queue room exists,
  /// else rejected immediately (Outcome::kRejected, sub-millisecond, no
  /// effect on in-flight runs).
  std::size_t max_inflight = 0;

  /// Requests allowed to wait for an execution slot when the session is
  /// at max_inflight. 0: no queue — excess requests are rejected
  /// immediately. A queued request with a deadline budget waits at most
  /// its own deadline before coming back as kRejected (deadline-aware
  /// rejection: a request that would wake with no time left is refused
  /// rather than started doomed).
  std::size_t max_queue_depth = 0;
};

/// Checks `options`; empty string when valid.
std::string ValidateSessionOptions(const SessionOptions& options);

class MiningSession {
 public:
  /// Opens a session over `db` (kept by reference; must outlive the
  /// session) and prepares the adaptive tid-set index up front.
  /// CHECK-fails on invalid options — validate first when they come from
  /// user input.
  static MiningSession Open(const UncertainDatabase& db,
                            SessionOptions options = SessionOptions{});

  MiningSession(MiningSession&&) = default;

  /// Drains the target session's submitted runs before replacing it (a
  /// joinable worker must never be dropped).
  MiningSession& operator=(MiningSession&& other);

  /// Joins every Submit() worker still running: a RunHandle that
  /// outlives its session therefore always holds a completed result and
  /// never dangles into freed session state.
  ~MiningSession();

  /// Serves one request with the session's shared index and cache.
  /// Identical results to Mine(db, request) — see the determinism note
  /// above — with stats.cache_* reporting the session's cache work.
  MiningResult Mine(const MiningRequest& request);

  /// Resumes a suspended run from the snapshot at `path` through the
  /// session's shared index and cache: serves `request` with
  /// snapshot.resume_path bound to `path`. Verification (algorithm +
  /// database/request fingerprint) and the bit-identical resume contract
  /// are Mine()'s (see SnapshotPolicy); a mismatch comes back as
  /// kInvalidRequest. Note the cross-request cache can change dp_runs
  /// relative to a cold resume — results are unaffected.
  MiningResult ResumeFrom(const std::string& path,
                          const MiningRequest& request);

  /// Submits one request for asynchronous execution and returns a handle
  /// immediately; the run executes on a session worker thread through
  /// the same admission control, index, and cache as Mine(). All
  /// failures are error-as-data through the handle (kInvalidRequest,
  /// kRejected, kCancelled, ...) — Submit itself never blocks on the
  /// run. The handle owns cancellation (RunHandle::Cancel), so a request
  /// carrying its own cancel token is answered kInvalidRequest. Results
  /// are bit-identical to a synchronous Mine() of the same request.
  RunHandle Submit(const MiningRequest& request);

  /// Serves a whole batch with shared-scan planning (DESIGN.md §15):
  /// PlanBatch groups compatible requests (same algorithm), each group
  /// runs highest threshold first so every DP tail table a member caches
  /// answers the lower thresholds behind it, and distinct groups run
  /// concurrently (their work units interleave on the shared
  /// work-stealing pool under fair-share UnitQuota). Results come back
  /// in submission order, each bit-identical to a standalone Mine() of
  /// that request; invalid members come back kInvalidRequest without
  /// perturbing the rest. Every result is stamped with the batch
  /// counters (stats.batch_size, batch_groups, shared_dp_hits,
  /// queued_micros; stats-json schema v6).
  std::vector<MiningResult> MineBatch(std::span<const MiningRequest> requests);

  const UncertainDatabase& db() const { return *state_->db; }
  const SessionOptions& options() const { return state_->options; }

  /// Session cache observability (zero with the cache disabled).
  std::uint64_t cache_bytes() const;
  std::uint64_t cache_entries() const;
  std::uint64_t cache_evictions() const;

  /// Admission observability: currently executing runs / total requests
  /// rejected by admission control since Open.
  std::size_t inflight() const;
  std::uint64_t admission_rejected() const;

 private:
  /// All session state sits behind one pointer so the session is movable
  /// while runs hold stable addresses into it.
  struct State {
    const UncertainDatabase* db = nullptr;
    SessionOptions options;
    std::unique_ptr<EvalCache> cache;  ///< Null when cache_bytes == 0.
    std::unique_ptr<VerticalIndex> index;  ///< Adaptive, built at Open.

    /// Admission control state (all under admission_mutex). Admission
    /// never touches the cache or the index, so a rejection can never
    /// perturb an in-flight run.
    std::mutex admission_mutex;
    std::condition_variable admission_cv;
    std::size_t inflight = 0;
    std::size_t queued = 0;
    std::uint64_t rejected = 0;

    /// Submit() worker threads, joined by DrainSubmitted (destructor /
    /// move-assignment). Guarded by submit_mutex.
    std::mutex submit_mutex;
    std::vector<std::thread> submit_threads;
  };

  explicit MiningSession(std::unique_ptr<State> state)
      : state_(std::move(state)) {}

  /// One request with session bindings attached. The run's
  /// shared_dp_hits (DP-table hits on tables other runs stored) are kept
  /// only for a `batch_follower`; any other run reports 0.
  ///
  /// These helpers are static over State rather than members: Submit()
  /// workers and batch group threads outlast any particular `this` (the
  /// session is movable), so everything they touch goes through the
  /// stable State address.
  static MiningResult MineStep(State& state, const MiningRequest& request,
                               bool batch_follower = false);

  /// Takes an execution slot (possibly waiting up to `deadline_seconds`
  /// in the admission queue); false means rejected. Always true with
  /// admission control off.
  static bool Admit(State& state, double deadline_seconds);
  static void Release(State& state);

  /// Body of one Submit() worker: waits out nothing, runs the request
  /// (unless cancelled before start), publishes through the ticket.
  static void RunSubmitted(State* state,
                           std::shared_ptr<internal::RunTicket> ticket,
                           MiningRequest request, Stopwatch queued);

  /// Joins every submitted worker (idempotent).
  static void DrainSubmitted(State& state);

  std::unique_ptr<State> state_;
};

}  // namespace pfci

#endif  // PFCI_SERVE_MINING_SESSION_H_
