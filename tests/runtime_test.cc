// Unit tests of the fail-soft runtime primitives: CancelToken, RunBudget,
// the deterministic fair-share UnitQuota split, the per-unit
// WorkUnitBudget ledger, and the shared RunController (outcome priority,
// deadline, degradation latch, memory accounting).
#include "src/util/runtime.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace pfci {
namespace {

TEST(Outcome, NamesAreStable) {
  EXPECT_STREQ(OutcomeName(Outcome::kComplete), "complete");
  EXPECT_STREQ(OutcomeName(Outcome::kBudgetExhausted), "budget_exhausted");
  EXPECT_STREQ(OutcomeName(Outcome::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(OutcomeName(Outcome::kCancelled), "cancelled");
  EXPECT_STREQ(OutcomeName(Outcome::kInvalidRequest), "invalid_request");
  EXPECT_STREQ(OutcomeName(Outcome::kRejected), "rejected");
}

TEST(CancelToken, TriggersOnceAndStaysTriggered) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  token.RequestCancel();  // Idempotent.
  EXPECT_TRUE(token.cancelled());
}

TEST(RunBudget, UnlimitedIsTheDefault) {
  RunBudget budget;
  EXPECT_TRUE(budget.Unlimited());
  budget.max_nodes = 1;
  EXPECT_FALSE(budget.Unlimited());
  budget = RunBudget{};
  budget.deadline_seconds = 0.5;
  EXPECT_FALSE(budget.Unlimited());
  budget = RunBudget{};
  budget.max_samples = 1;
  EXPECT_FALSE(budget.Unlimited());
  budget = RunBudget{};
  budget.max_resident_bytes = 1;
  EXPECT_FALSE(budget.Unlimited());
}

TEST(UnitQuota, ZeroTotalMeansUnlimited) {
  EXPECT_EQ(UnitQuota(0, 0, 4), kUnlimitedQuota);
  EXPECT_EQ(UnitQuota(0, 3, 4), kUnlimitedQuota);
}

TEST(UnitQuota, SharesSumToTotal) {
  for (const std::uint64_t total : {1u, 7u, 100u, 101u, 4096u}) {
    for (const std::size_t units : {1u, 2u, 3u, 7u, 16u}) {
      std::uint64_t sum = 0;
      for (std::size_t u = 0; u < units; ++u) {
        sum += UnitQuota(total, u, units);
      }
      EXPECT_EQ(sum, total) << "total=" << total << " units=" << units;
    }
  }
}

TEST(UnitQuota, RemainderGoesToTheFirstUnits) {
  // 10 over 4 units: 3, 3, 2, 2 — a pure function of (total, unit, n).
  EXPECT_EQ(UnitQuota(10, 0, 4), 3u);
  EXPECT_EQ(UnitQuota(10, 1, 4), 3u);
  EXPECT_EQ(UnitQuota(10, 2, 4), 2u);
  EXPECT_EQ(UnitQuota(10, 3, 4), 2u);
}

TEST(WorkUnitBudget, DefaultIsUnlimited) {
  WorkUnitBudget unit;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(unit.TakeNode());
    EXPECT_TRUE(unit.TakeSamples(1u << 20));
  }
  EXPECT_FALSE(unit.truncated);
}

TEST(WorkUnitBudget, TakeNodeRefusesAtQuotaAndSetsTruncated) {
  WorkUnitBudget unit;
  unit.node_quota = 3;
  EXPECT_TRUE(unit.TakeNode());
  EXPECT_TRUE(unit.TakeNode());
  EXPECT_TRUE(unit.TakeNode());
  EXPECT_FALSE(unit.truncated);
  EXPECT_FALSE(unit.TakeNode());
  EXPECT_TRUE(unit.truncated);
  EXPECT_EQ(unit.nodes_used, 3u);
}

TEST(WorkUnitBudget, TakeSamplesIsAllOrNothing) {
  WorkUnitBudget unit;
  unit.sample_quota = 100;
  EXPECT_TRUE(unit.TakeSamples(60));
  // 50 > 40 remaining: refused whole, nothing deducted.
  EXPECT_FALSE(unit.TakeSamples(50));
  EXPECT_TRUE(unit.truncated);
  EXPECT_EQ(unit.samples_used, 60u);
}

TEST(RunController, DefaultNeverStops) {
  RunController controller;
  EXPECT_FALSE(controller.Checkpoint());
  EXPECT_FALSE(controller.StopRequested());
  EXPECT_FALSE(controller.truncated());
  EXPECT_EQ(controller.outcome(), Outcome::kComplete);
  const WorkUnitBudget unit = controller.UnitBudget(0, 1);
  EXPECT_EQ(unit.node_quota, kUnlimitedQuota);
  EXPECT_EQ(unit.sample_quota, kUnlimitedQuota);
}

TEST(RunController, CheckpointSeesCancellation) {
  CancelToken token;
  RunController controller(RunBudget{}, &token);
  EXPECT_FALSE(controller.Checkpoint());
  token.RequestCancel();
  EXPECT_TRUE(controller.Checkpoint());
  EXPECT_TRUE(controller.StopRequested());
  EXPECT_EQ(controller.outcome(), Outcome::kCancelled);
  EXPECT_TRUE(controller.truncated());
}

TEST(RunController, CheckpointSeesExpiredDeadline) {
  RunBudget budget;
  budget.deadline_seconds = 1e-9;  // Expired by the time we poll.
  RunController controller(budget, nullptr);
  EXPECT_TRUE(controller.Checkpoint());
  EXPECT_EQ(controller.outcome(), Outcome::kDeadlineExceeded);
}

TEST(RunController, HighestPriorityOutcomeWins) {
  // Enum value order doubles as priority: cancelled > deadline > budget.
  RunController controller;
  controller.RecordTruncation(Outcome::kBudgetExhausted);
  EXPECT_EQ(controller.outcome(), Outcome::kBudgetExhausted);
  EXPECT_FALSE(controller.StopRequested()) << "truncation is not a stop";
  controller.RecordStop(Outcome::kCancelled);
  EXPECT_EQ(controller.outcome(), Outcome::kCancelled);
  controller.RecordTruncation(Outcome::kBudgetExhausted);  // Cannot demote.
  EXPECT_EQ(controller.outcome(), Outcome::kCancelled);
  EXPECT_TRUE(controller.StopRequested());
}

TEST(RunController, UnitBudgetSplitsTheRunBudget) {
  RunBudget budget;
  budget.max_nodes = 10;
  budget.max_samples = 7;
  RunController controller(budget, nullptr);
  std::uint64_t nodes = 0;
  std::uint64_t samples = 0;
  for (std::size_t u = 0; u < 4; ++u) {
    const WorkUnitBudget unit = controller.UnitBudget(u, 4);
    nodes += unit.node_quota;
    samples += unit.sample_quota;
  }
  EXPECT_EQ(nodes, 10u);
  EXPECT_EQ(samples, 7u);
}

TEST(RunController, DegradesOnlyUnderADeadline) {
  RunController no_deadline;
  EXPECT_FALSE(no_deadline.ShouldDegradeFcp());

  RunBudget budget;
  budget.deadline_seconds = 3600.0;  // Far away: never an actual stop.
  budget.degrade_fraction = 1e-12;   // Pressure point already passed.
  RunController controller(budget, nullptr);
  EXPECT_TRUE(controller.ShouldDegradeFcp());
  EXPECT_TRUE(controller.ShouldDegradeFcp()) << "latch must hold";
  EXPECT_FALSE(controller.Checkpoint()) << "degradation is not a stop";
  EXPECT_EQ(controller.outcome(), Outcome::kComplete);
}

TEST(RunController, SuspendModeDrainsAtUnitBoundary) {
  RunBudget budget;
  budget.max_nodes = 10;
  RunController controller(budget, nullptr);
  controller.ArmSuspend();
  EXPECT_TRUE(controller.ShouldStartUnit());
  EXPECT_FALSE(controller.SuspendRequested());

  // Armed ledgers are unlimited: budgets act at unit granularity.
  const WorkUnitBudget ledger = controller.UnitBudget(0, 4);
  EXPECT_EQ(ledger.node_quota, kUnlimitedQuota);
  EXPECT_EQ(ledger.sample_quota, kUnlimitedQuota);

  controller.NoteUnitWork(6, 0);
  EXPECT_TRUE(controller.ShouldStartUnit()) << "under budget: keep going";
  controller.NoteUnitWork(6, 0);  // Total 12 >= 10: drain requested.
  EXPECT_TRUE(controller.SuspendRequested());
  EXPECT_FALSE(controller.ShouldStartUnit()) << "new units are refused";
  EXPECT_FALSE(controller.StopRequested())
      << "a drain is not a stop: in-flight units run to completion";
  EXPECT_FALSE(controller.Checkpoint());
  EXPECT_EQ(controller.outcome(), Outcome::kBudgetExhausted);
}

TEST(RunController, SuspendArmedControllerWithoutLimitsNeverDrains) {
  RunController controller(RunBudget{}, nullptr);
  controller.ArmSuspend();
  EXPECT_TRUE(controller.suspend_armed());
  controller.NoteUnitWork(1000, 1000);  // No budget: never drains.
  EXPECT_FALSE(controller.SuspendRequested());
}

TEST(RunController, ClockPollsBackOffExponentially) {
  RunBudget budget;
  budget.deadline_seconds = 3600.0;  // Far away: the stride path rules.
  RunController controller(budget, nullptr);
  const std::uint64_t kCalls = 1024;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    ASSERT_FALSE(controller.Checkpoint());
  }
  // Doubling stride polls at calls 0, 1, 3, 7, 15, 31, then every 32:
  // 6 warm-up polls plus ~(1024 - 31) / 32 steady-state ones. Anything
  // near one poll per call means the cache regressed.
  EXPECT_GE(controller.clock_polls(), 6u);
  EXPECT_LE(controller.clock_polls(), 6u + kCalls / 32 + 2)
      << "Checkpoint() must amortize clock reads, not poll per call";
}

TEST(RunController, MemoryBudgetTripsAGlobalStop) {
  RunBudget budget;
  budget.max_resident_bytes = 1000;
  RunController controller(budget, nullptr);
  controller.ChargeBytes(600);
  EXPECT_FALSE(controller.StopRequested());
  EXPECT_EQ(controller.resident_bytes(), 600u);
  controller.ReleaseBytes(600);
  controller.ChargeBytes(900);
  EXPECT_FALSE(controller.StopRequested());
  controller.ChargeBytes(200);  // High-water 1100 > 1000.
  EXPECT_TRUE(controller.StopRequested());
  EXPECT_EQ(controller.outcome(), Outcome::kBudgetExhausted);
}

}  // namespace
}  // namespace pfci
