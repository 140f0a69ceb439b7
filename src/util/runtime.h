// Fail-soft mining runtime: cancellation, deadlines, and resource budgets.
//
// Computing PrFC is #P-hard (Theorems 3.1/3.2), so a served deployment
// must survive requests whose exact inclusion-exclusion or
// world-enumeration paths blow up. Instead of running forever (or
// aborting), every miner carries a RunController and polls it at
// cooperative checkpoints — node expansion, sample-batch, and world-range
// boundaries — and returns a *verified partial* result when a limit
// trips: only fully-decided entries are emitted, and the stop reason is
// reported as an Outcome in the MiningResult.
//
// Determinism contract (extends DESIGN.md §7/§8 to partial results): the
// logical budgets (max_nodes, max_samples) are enforced per unit of
// parallel work with a fair-share quota that is a pure function of the
// request, so an interrupted run is bit-identical across thread counts
// and tid-set modes. Wall-clock deadlines, cancellation, and the memory
// budget are inherently scheduling-dependent and carry no such guarantee
// — but the per-entry values of whatever was emitted still match an
// unbudgeted run, because truncation only ever cuts a suffix of each
// unit's deterministic work stream.
#ifndef PFCI_UTIL_RUNTIME_H_
#define PFCI_UTIL_RUNTIME_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "src/util/stopwatch.h"

namespace pfci {

/// How a mining run ended. Every value except kComplete means the result
/// holds a (possibly empty) verified prefix of the full answer.
enum class Outcome : std::uint8_t {
  kComplete = 0,          ///< Ran to completion; the result is the full answer.
  kBudgetExhausted = 1,   ///< A logical budget (nodes/samples/bytes) tripped.
  kDeadlineExceeded = 2,  ///< The wall-clock deadline passed.
  kCancelled = 3,         ///< The caller's CancelToken was triggered.
  kInvalidRequest = 4,    ///< Request validation failed; nothing ran.
  kRejected = 5,          ///< Admission control refused the request; nothing
                          ///< ran. Stamped by MiningSession, never recorded
                          ///< through RunController::RecordStop.
};

/// Wire/display name ("complete", "budget_exhausted", "deadline_exceeded",
/// "cancelled", "invalid_request", "rejected").
const char* OutcomeName(Outcome outcome);

/// Cooperative cancellation flag. The caller keeps the token (e.g. wired
/// to a signal handler or an RPC disconnect) and may trigger it from any
/// thread; miners poll it at checkpoints. A token can back several
/// sequential runs; it never resets itself.
class CancelToken {
 public:
  void RequestCancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Resource limits of one mining run. Zero (the default) disables the
/// corresponding limit.
struct RunBudget {
  /// Wall-clock limit in seconds, measured from Mine() entry. Best-effort:
  /// checked at checkpoints, so long atomic steps can overshoot.
  double deadline_seconds = 0.0;

  /// Maximum search-tree nodes. Deterministic: the budget is split
  /// fair-share across the run's parallel work units (e.g. MPFCI
  /// first-level subtrees), making the truncation point a pure function
  /// of the request.
  std::uint64_t max_nodes = 0;

  /// Maximum ApproxFCP Monte-Carlo samples, fair-share split like
  /// max_nodes. An evaluation whose required sample count exceeds the
  /// unit's remaining quota is skipped whole (never run with fewer
  /// samples), so emitted estimates always carry the full FPRAS
  /// guarantee.
  std::uint64_t max_samples = 0;

  /// Maximum resident bytes of the run's VerticalIndex (built or borrowed
  /// from a session) or an item-level run's ItemColumns, as reported by
  /// their MemoryBytes() and charged once at run start (UF-growth charges
  /// the weighted rows its FP-tree is built from). Per-node covers and
  /// conditional trees are not counted. Best-effort, like the deadline.
  std::uint64_t max_resident_bytes = 0;

  /// Degradation point: once elapsed time exceeds this fraction of
  /// deadline_seconds, MPFCI-family miners switch remaining FCP
  /// evaluations from exact inclusion-exclusion to the ApproxFCP sampler
  /// (cheaper, still FPRAS-guaranteed) before giving up entirely.
  double degrade_fraction = 0.5;

  /// True when no limit is set (the controller then never polls a clock).
  bool Unlimited() const {
    return deadline_seconds <= 0.0 && max_nodes == 0 && max_samples == 0 &&
           max_resident_bytes == 0;
  }
};

/// Sentinel for "no quota" in per-unit budget arithmetic.
inline constexpr std::uint64_t kUnlimitedQuota =
    std::numeric_limits<std::uint64_t>::max();

/// Fair-share split of a logical budget across `num_units` parallel work
/// units: unit `unit` may spend UnitQuota(total, unit, num_units) of it.
/// Returns kUnlimitedQuota when `total` is 0 (no budget). The shares
/// depend only on (total, unit, num_units) — never on thread count or
/// scheduling — which is what makes budget truncation deterministic.
std::uint64_t UnitQuota(std::uint64_t total, std::size_t unit,
                        std::size_t num_units);

/// Deterministic per-work-unit ledger of the logical budgets. Each
/// parallel unit (an MPFCI first-level subtree, one BFS/Naive evaluation,
/// the single unit of a sequential miner) owns one; its quotas come from
/// UnitQuota, so consumption is a pure function of the request. Not
/// thread-safe — one unit runs on one thread at a time.
struct WorkUnitBudget {
  std::uint64_t node_quota = kUnlimitedQuota;
  std::uint64_t sample_quota = kUnlimitedQuota;
  std::uint64_t nodes_used = 0;
  std::uint64_t samples_used = 0;

  /// True once any Take* was refused: the unit's remaining work is cut.
  bool truncated = false;

  /// True when neither quota is finite (no Take* can ever be refused).
  bool Unlimited() const {
    return node_quota == kUnlimitedQuota && sample_quota == kUnlimitedQuota;
  }

  /// Claims one search node; false (and truncated) when the quota is out.
  bool TakeNode() {
    if (nodes_used >= node_quota) {
      truncated = true;
      return false;
    }
    ++nodes_used;
    return true;
  }

  /// Claims `n` Monte-Carlo samples atomically-or-not-at-all: an FCP
  /// evaluation that cannot afford its full FPRAS sample count is skipped
  /// whole, never run shorter (emitted estimates always carry the full
  /// guarantee).
  bool TakeSamples(std::uint64_t n) {
    if (n > sample_quota - samples_used) {
      truncated = true;
      return false;
    }
    samples_used += n;
    return true;
  }
};

/// Shared per-run stop/outcome state polled by every miner. One instance
/// lives for the duration of one Mine() call (ExecutionContext::runtime)
/// and is wired into every run, limited or not; a default-constructed
/// controller is unlimited and never stops.
///
/// Thread-safe: checkpoints may run concurrently from worker threads.
class RunController {
 public:
  /// Unlimited, never stops: what a standalone entry point called
  /// without a controller runs under.
  RunController() = default;

  /// Starts the run clock immediately.
  RunController(const RunBudget& budget, const CancelToken* cancel)
      : budget_(budget), cancel_(cancel) {}

  const RunBudget& budget() const { return budget_; }

  /// Fair-share ledger for unit `unit` of `num_units` parallel work units
  /// (see UnitQuota). Sequential miners use UnitBudget(0, 1). In suspend
  /// mode (ArmSuspend) the ledger is unlimited: budgets then act at unit
  /// granularity through NoteUnitWork, never mid-unit, so every started
  /// unit runs to completion and a snapshot never holds half a unit.
  WorkUnitBudget UnitBudget(std::size_t unit, std::size_t num_units) const {
    WorkUnitBudget ledger;
    if (suspend_armed_) return ledger;
    ledger.node_quota = UnitQuota(budget_.max_nodes, unit, num_units);
    ledger.sample_quota = UnitQuota(budget_.max_samples, unit, num_units);
    return ledger;
  }

  /// Fast query: has a global stop (cancel/deadline/memory) been
  /// requested? Budget truncation of one work unit does NOT set this —
  /// other units continue to their own quotas.
  bool StopRequested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Cooperative checkpoint: polls the cancel token and the deadline and
  /// returns whether the caller should stop. Without a token or deadline
  /// it reads no clock: two relaxed loads.
  ///
  /// The deadline is checked against a cached steady_clock read rather
  /// than a syscall per call: the poll stride starts at 1 and doubles
  /// after every far-from-deadline poll up to kClockCheckStride, so the
  /// clock is read at calls 0, 1, 3, 7, 15, 31, then every 32. Slow runs
  /// (few, expensive checkpoints) still see an expired deadline within
  /// one step; hot loops (the per-node path) amortize to one clock read
  /// per 32 checkpoints. Once the cached elapsed time passes
  /// kClockAlwaysPollFraction of the deadline, every call polls so
  /// detection stays prompt near the limit. Poll-state races are benign:
  /// they only cause extra polls.
  bool Checkpoint() {
    if (cancel_ != nullptr && cancel_->cancelled()) {
      RecordStop(Outcome::kCancelled);
      return StopRequested();
    }
    if (stop_.load(std::memory_order_relaxed)) return true;
    if (budget_.deadline_seconds > 0.0 &&
        !(suspend_armed_ && SuspendRequested())) {
      const std::uint64_t n =
          checkpoint_calls_.fetch_add(1, std::memory_order_relaxed);
      const bool poll =
          n >= next_clock_poll_.load(std::memory_order_relaxed) ||
          cached_elapsed_.load(std::memory_order_relaxed) >=
              kClockAlwaysPollFraction * budget_.deadline_seconds;
      if (poll) {
        const double elapsed = clock_.ElapsedSeconds();
        clock_polls_.fetch_add(1, std::memory_order_relaxed);
        cached_elapsed_.store(elapsed, std::memory_order_relaxed);
        if (elapsed >= budget_.deadline_seconds) {
          RecordStop(Outcome::kDeadlineExceeded);
        } else {
          const std::uint64_t stride =
              clock_stride_.load(std::memory_order_relaxed);
          if (stride < kClockCheckStride) {
            clock_stride_.store(stride * 2, std::memory_order_relaxed);
          }
          next_clock_poll_.store(n + stride, std::memory_order_relaxed);
        }
      }
    }
    return StopRequested();
  }

  /// Records a global stop: every unit should wind down at its next
  /// checkpoint. The stickiest outcome wins (cancel > deadline > budget),
  /// so the reported reason is stable under races.
  ///
  /// In suspend mode (ArmSuspend) a stop becomes a drain instead: the
  /// outcome is recorded and ShouldStartUnit() turns false, but stop_
  /// stays clear, so units already in flight run to their natural end.
  void RecordStop(Outcome outcome) {
    RecordOutcome(outcome);
    if (suspend_armed_) {
      suspend_.store(true, std::memory_order_relaxed);
    } else {
      stop_.store(true, std::memory_order_relaxed);
    }
  }

  /// Switches the controller to drain-at-unit-boundary semantics for
  /// snapshot-armed runs. Must be called before the run starts (not
  /// thread-safe against concurrent checkpoints). While armed:
  ///   * RecordStop sets suspend_ instead of stop_ — in-flight units
  ///     complete, new units are refused by ShouldStartUnit();
  ///   * UnitBudget() hands out unlimited ledgers — logical budgets act
  ///     through NoteUnitWork at unit completion instead (overshoot is at
  ///     most the in-flight units' work, documented in DESIGN.md §14).
  /// The suspension point is scheduling-dependent; the resume contract
  /// only requires that resuming converges to the bit-identical
  /// uninterrupted answer, which drain-at-unit-boundary guarantees
  /// because completed units are deterministic in isolation.
  void ArmSuspend() { suspend_armed_ = true; }

  bool suspend_armed() const { return suspend_armed_; }

  /// Whether a drain has been requested (armed mode only).
  bool SuspendRequested() const {
    return suspend_.load(std::memory_order_relaxed);
  }

  /// Gate at unit entry: false once a stop or a drain is pending. Units
  /// poll this before claiming work; in unarmed mode it is exactly
  /// !StopRequested().
  bool ShouldStartUnit() const {
    return !stop_.load(std::memory_order_relaxed) &&
           !suspend_.load(std::memory_order_relaxed);
  }

  /// Unit-completion accounting for suspend mode: accumulates the unit's
  /// node/sample consumption and requests a drain once a logical budget
  /// is exceeded. No-op when unarmed (the fair-share ledgers rule there).
  void NoteUnitWork(std::uint64_t nodes, std::uint64_t samples) {
    if (!suspend_armed_) return;
    const std::uint64_t total_nodes =
        noted_nodes_.fetch_add(nodes, std::memory_order_relaxed) + nodes;
    const std::uint64_t total_samples =
        noted_samples_.fetch_add(samples, std::memory_order_relaxed) + samples;
    if ((budget_.max_nodes != 0 && total_nodes >= budget_.max_nodes) ||
        (budget_.max_samples != 0 && total_samples >= budget_.max_samples)) {
      RecordStop(Outcome::kBudgetExhausted);
    }
  }

  /// Number of times Checkpoint() actually read the steady clock (the
  /// stride cache's effectiveness metric, asserted in bench and tests).
  std::uint64_t clock_polls() const {
    return clock_polls_.load(std::memory_order_relaxed);
  }

  /// Records that one work unit exhausted its fair-share quota and was
  /// truncated. Does not stop other units (that would reintroduce
  /// scheduling dependence).
  void RecordTruncation(Outcome outcome) { RecordOutcome(outcome); }

  /// Whether any entry of the full answer may be missing.
  bool truncated() const {
    return outcome_.load(std::memory_order_relaxed) !=
           static_cast<std::uint8_t>(Outcome::kComplete);
  }

  Outcome outcome() const {
    return static_cast<Outcome>(outcome_.load(std::memory_order_relaxed));
  }

  /// Deadline pressure: true once elapsed time exceeds degrade_fraction *
  /// deadline_seconds (false without a deadline). Latches on first trigger
  /// so the degradation decision never flips back.
  bool ShouldDegradeFcp() {
    if (degrade_.load(std::memory_order_relaxed)) return true;
    if (budget_.deadline_seconds <= 0.0) return false;
    if (clock_.ElapsedSeconds() >=
        budget_.degrade_fraction * budget_.deadline_seconds) {
      degrade_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Accounts `bytes` of newly resident tid-set storage; trips a global
  /// kBudgetExhausted stop when the high-water mark passes the memory
  /// budget. Pair with ReleaseBytes for structures that are freed
  /// mid-run.
  void ChargeBytes(std::uint64_t bytes) {
    const std::uint64_t now =
        resident_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (budget_.max_resident_bytes != 0 &&
        now > budget_.max_resident_bytes) {
      RecordStop(Outcome::kBudgetExhausted);
    }
  }

  void ReleaseBytes(std::uint64_t bytes) {
    resident_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// Keeps the highest-priority stop reason (enum order doubles as
  /// priority: cancelled > deadline > budget > complete).
  void RecordOutcome(Outcome outcome) {
    std::uint8_t current = outcome_.load(std::memory_order_relaxed);
    const std::uint8_t wanted = static_cast<std::uint8_t>(outcome);
    while (current < wanted &&
           !outcome_.compare_exchange_weak(current, wanted,
                                           std::memory_order_relaxed)) {
    }
  }

  /// Upper bound of the doubling poll stride (see Checkpoint).
  static constexpr std::uint64_t kClockCheckStride = 32;
  /// Once the cached elapsed time reaches this fraction of the deadline,
  /// every checkpoint polls.
  static constexpr double kClockAlwaysPollFraction = 0.9;

  RunBudget budget_;
  const CancelToken* cancel_ = nullptr;
  Stopwatch clock_;
  bool suspend_armed_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<bool> suspend_{false};
  std::atomic<bool> degrade_{false};
  std::atomic<std::uint8_t> outcome_{
      static_cast<std::uint8_t>(Outcome::kComplete)};
  std::atomic<std::uint64_t> resident_bytes_{0};
  std::atomic<std::uint64_t> checkpoint_calls_{0};
  std::atomic<std::uint64_t> clock_polls_{0};
  std::atomic<std::uint64_t> next_clock_poll_{0};
  std::atomic<std::uint64_t> clock_stride_{1};
  std::atomic<double> cached_elapsed_{0.0};
  std::atomic<std::uint64_t> noted_nodes_{0};
  std::atomic<std::uint64_t> noted_samples_{0};
};

}  // namespace pfci

#endif  // PFCI_UTIL_RUNTIME_H_
