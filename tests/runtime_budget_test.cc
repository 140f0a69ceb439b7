// End-to-end fail-soft behavior of Mine(): node/sample budgets return
// verified partial results that are bit-identical across thread counts
// and tid-set modes, deadlines and cancellation wind runs down cleanly,
// the memory budget trips, deadline pressure degrades exact FCP
// evaluations to the sampler, and sinks flush on every exit path.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/mine.h"
#include "src/data/item_uncertain_database.h"
#include "src/data/vertical_index.h"
#include "src/datagen/probability_assigner.h"
#include "src/datagen/quest_generator.h"
#include "src/exact/charm_miner.h"
#include "src/exact/closed_miner.h"
#include "src/harness/dataset_factory.h"
#include "src/util/runtime.h"
#include "src/util/trace.h"
#include "tests/item_level_input.h"

namespace pfci {
namespace {

/// Same shape as the parallel-determinism suite: enough first-level
/// subtrees that fair-share budget splitting is actually exercised.
UncertainDatabase MakeTestDb(std::uint64_t seed) {
  QuestParams quest;
  quest.num_transactions = 120;
  quest.avg_transaction_length = 8.0;
  quest.avg_pattern_length = 4.0;
  quest.num_items = 24;
  quest.num_patterns = 12;
  quest.seed = seed;
  GaussianAssignerParams assign;
  assign.mean = 0.8;
  assign.spread = 0.1;
  assign.seed = seed + 1;
  return AssignGaussianProbabilities(GenerateQuest(quest), assign);
}

MiningRequest BaseRequest(std::uint64_t seed) {
  MiningRequest request;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = seed;
  return request;
}

void ExpectIdenticalEntries(const MiningResult& a, const MiningResult& b) {
  ASSERT_EQ(a.itemsets.size(), b.itemsets.size());
  for (std::size_t i = 0; i < a.itemsets.size(); ++i) {
    EXPECT_EQ(a.itemsets[i].items, b.itemsets[i].items);
    EXPECT_EQ(a.itemsets[i].fcp, b.itemsets[i].fcp);
    EXPECT_EQ(a.itemsets[i].pr_f, b.itemsets[i].pr_f);
    EXPECT_EQ(a.itemsets[i].method, b.itemsets[i].method);
  }
  EXPECT_EQ(a.stats.nodes_visited, b.stats.nodes_visited);
  EXPECT_EQ(a.stats.total_samples, b.stats.total_samples);
  EXPECT_EQ(a.outcome(), b.outcome());
  EXPECT_EQ(a.stats.truncated, b.stats.truncated);
}

/// The verified-partial contract: every emitted entry matches the
/// unbudgeted run bit-for-bit.
void ExpectVerifiedPrefix(const MiningResult& partial,
                          const MiningResult& full) {
  for (const PfciEntry& entry : partial.itemsets) {
    const PfciEntry* reference = full.Find(entry.items);
    ASSERT_NE(reference, nullptr)
        << entry.items.ToString() << " not in the unbudgeted run";
    EXPECT_EQ(entry.fcp, reference->fcp) << entry.items.ToString();
    EXPECT_EQ(entry.pr_f, reference->pr_f) << entry.items.ToString();
  }
}

MiningResult MineWith(const UncertainDatabase& db, const MiningRequest& base,
                      std::size_t threads) {
  MiningRequest request = base;
  request.execution.num_threads = threads;
  return Mine(db, request);
}

TEST(RuntimeBudget, NodeBudgetReturnsDeterministicVerifiedPartial) {
  // The acceptance scenario: a node budget well below the search-space
  // size yields kBudgetExhausted with a non-empty verified partial,
  // bit-identical across 1/2/4 threads and every tid-set mode.
  const UncertainDatabase db = MakeTestDb(42);
  MiningRequest request = BaseRequest(42);
  const MiningResult full = Mine(db, request);
  ASSERT_EQ(full.outcome(), Outcome::kComplete);
  ASSERT_GT(full.stats.nodes_visited, 8u);

  request.budget.max_nodes = full.stats.nodes_visited / 2;
  const MiningResult partial = MineWith(db, request, 1);
  EXPECT_EQ(partial.outcome(), Outcome::kBudgetExhausted);
  EXPECT_FALSE(partial.ok());
  EXPECT_TRUE(partial.stats.truncated);
  EXPECT_FALSE(partial.itemsets.empty());
  EXPECT_LE(partial.stats.nodes_visited, request.budget.max_nodes);
  EXPECT_FALSE(partial.status_message.empty());
  ExpectVerifiedPrefix(partial, full);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdenticalEntries(partial, MineWith(db, request, threads));
  }
  for (const TidSetMode mode : {TidSetMode::kSparse, TidSetMode::kDense}) {
    SCOPED_TRACE(TidSetModeName(mode));
    MiningRequest moded = request;
    moded.params.tidset_mode = mode;
    ExpectIdenticalEntries(partial, MineWith(db, moded, 2));
  }
}

TEST(RuntimeBudget, SampleBudgetSkipsEvaluationsWhole) {
  // Forced-sampling run: a sample budget refuses some evaluations, but
  // whatever is emitted carries the full FPRAS sample count and matches
  // the unbudgeted run exactly.
  const UncertainDatabase db = MakeTestDb(7);
  MiningRequest request = BaseRequest(7);
  request.params.force_sampling = true;
  request.params.exact_event_limit = 0;
  request.params.pruning.fcp_bounds = false;
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  const MiningResult full = Mine(db, request);
  ASSERT_EQ(full.outcome(), Outcome::kComplete);
  ASSERT_GT(full.stats.total_samples, 0u);

  request.budget.max_samples = full.stats.total_samples / 2;
  const MiningResult partial = MineWith(db, request, 1);
  EXPECT_EQ(partial.outcome(), Outcome::kBudgetExhausted);
  EXPECT_TRUE(partial.stats.truncated);
  EXPECT_LE(partial.stats.total_samples, request.budget.max_samples);
  ExpectVerifiedPrefix(partial, full);
  ExpectIdenticalEntries(partial, MineWith(db, request, 4));
}

/// The fail-soft contract of one request on `db`, through whichever
/// Mine() overload serves it: a node quota truncates to a verified
/// prefix after real work, a pre-cancelled token stops before emitting
/// anything, and a memory budget below the run's index (or item column
/// store), charged at run start, stops before the first node.
template <typename Db>
void ExpectBudgetsApply(const Db& db, const MiningRequest& request) {
  const MiningResult full = Mine(db, request);
  ASSERT_EQ(full.outcome(), Outcome::kComplete);

  MiningRequest limited = request;
  limited.budget.max_nodes = 3;
  const MiningResult partial = Mine(db, limited);
  EXPECT_EQ(partial.outcome(), Outcome::kBudgetExhausted);
  EXPECT_TRUE(partial.stats.truncated);
  EXPECT_GT(partial.stats.nodes_visited, 0u);
  // FP-growth projects pattern bases; it intersects no tid-sets.
  if (request.algorithm != Algorithm::kExpectedSupportFpGrowth) {
    EXPECT_GT(partial.stats.intersections, 0u);
  }
  ExpectVerifiedPrefix(partial, full);

  CancelToken cancelled;
  cancelled.RequestCancel();
  limited = request;
  limited.cancel = &cancelled;
  const MiningResult stopped = Mine(db, limited);
  EXPECT_EQ(stopped.outcome(), Outcome::kCancelled);
  EXPECT_TRUE(stopped.itemsets.empty());

  limited = request;
  limited.budget.max_resident_bytes = 1;
  const MiningResult starved = Mine(db, limited);
  EXPECT_EQ(starved.outcome(), Outcome::kBudgetExhausted);
  EXPECT_TRUE(starved.itemsets.empty());
  EXPECT_EQ(starved.stats.nodes_visited, 0u);
}

TEST(RuntimeBudget, BudgetsApplyToEveryAlgorithm) {
  const UncertainDatabase db = MakeTestDb(1);
  for (const Algorithm algorithm :
       {Algorithm::kMpfciBfs, Algorithm::kTopK, Algorithm::kPfi,
        Algorithm::kExpectedSupport, Algorithm::kExpectedSupportFpGrowth}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    MiningRequest request = BaseRequest(1);
    request.algorithm = algorithm;
    if (algorithm == Algorithm::kTopK) request.top_k = 5;
    if (algorithm == Algorithm::kExpectedSupport ||
        algorithm == Algorithm::kExpectedSupportFpGrowth) {
      request.min_esup = 8.0;
    }
    ExpectBudgetsApply(db, request);
  }

  // The item-level miners run the same enumeration under the same
  // controller.
  const ItemUncertainDatabase item_db = RandomItemDb(200, 1);
  for (const Algorithm algorithm :
       {Algorithm::kItemExpectedSupport, Algorithm::kItemPfi}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    MiningRequest request = BaseRequest(1);
    request.algorithm = algorithm;
    if (algorithm == Algorithm::kItemExpectedSupport) request.min_esup = 8.0;
    ExpectBudgetsApply(item_db, request);
  }
}

/// The stats JSON with the wall-clock fields zeroed.
std::string MaskedJson(MiningStats stats) {
  stats.seconds = 0.0;
  stats.candidate_seconds = 0.0;
  stats.search_seconds = 0.0;
  stats.merge_seconds = 0.0;
  return stats.ToJson();
}

TEST(RuntimeBudget, BudgetThatCannotTripIsNeutral) {
  // Every limit set, none reachable, and a token that never fires: the
  // run must match the unbudgeted one entry for entry and counter for
  // counter, at 1 and 4 threads.
  const UncertainDatabase db = MakeTestDb(1);
  // Brute force enumerates 2^n worlds: it gets the paper's small example.
  const UncertainDatabase small = MakePaperExampleDb();
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 60;
  CancelToken never;
  for (const Algorithm algorithm :
       {Algorithm::kMpfci, Algorithm::kMpfciBfs, Algorithm::kNaive,
        Algorithm::kTopK, Algorithm::kPfi, Algorithm::kExpectedSupport,
        Algorithm::kBruteForce}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(AlgorithmName(algorithm)) +
                   " threads=" + std::to_string(threads));
      MiningRequest request = BaseRequest(1);
      request.algorithm = algorithm;
      request.execution.num_threads = threads;
      // A mid-sized search in which both the exact and the sampled FCP
      // paths run.
      request.params.min_sup = 24;
      request.params.exact_event_limit = 4;
      request.params.epsilon = 0.4;
      request.params.delta = 0.3;
      if (algorithm == Algorithm::kTopK) request.top_k = 5;
      if (algorithm == Algorithm::kExpectedSupport) request.min_esup = 8.0;
      const bool brute = algorithm == Algorithm::kBruteForce;
      if (brute) request.params.min_sup = 2;
      const UncertainDatabase& input = brute ? small : db;
      const MiningResult free_run = Mine(input, request);
      ASSERT_EQ(free_run.outcome(), Outcome::kComplete);
      ASSERT_FALSE(free_run.itemsets.empty());

      request.budget.deadline_seconds = 1e6;
      request.budget.max_nodes = kHuge;
      request.budget.max_samples = kHuge;
      request.budget.max_resident_bytes = kHuge;
      request.cancel = &never;
      const MiningResult budgeted = Mine(input, request);
      ExpectIdenticalEntries(budgeted, free_run);
      EXPECT_EQ(MaskedJson(budgeted.stats), MaskedJson(free_run.stats));
    }
  }
}

TEST(RuntimeBudget, NaiveSampleBudgetEmitsBitIdenticalSubset) {
  // Naive stage 2 derives each check's seed from the PFI index, so
  // sample-budget refusals drop entries without shifting anyone else's
  // RNG stream (node truncation in stage 1 would — see DESIGN.md §10).
  const UncertainDatabase db = MakeTestDb(7);
  MiningRequest request = BaseRequest(7);
  request.algorithm = Algorithm::kNaive;
  request.params.min_sup = 10;
  request.params.pfct = 0.4;
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  const MiningResult full = Mine(db, request);
  ASSERT_EQ(full.outcome(), Outcome::kComplete);
  ASSERT_GT(full.stats.total_samples, 0u);

  request.budget.max_samples = full.stats.total_samples / 2;
  const MiningResult partial = Mine(db, request);
  EXPECT_EQ(partial.outcome(), Outcome::kBudgetExhausted);
  ExpectVerifiedPrefix(partial, full);
}

TEST(RuntimeBudget, PreCancelledTokenStopsBeforeAnyWork) {
  const UncertainDatabase db = MakeTestDb(42);
  CancelToken token;
  token.RequestCancel();
  MiningRequest request = BaseRequest(42);
  request.cancel = &token;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const MiningResult result = MineWith(db, request, threads);
    EXPECT_EQ(result.outcome(), Outcome::kCancelled);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.itemsets.empty());
    EXPECT_EQ(result.stats.nodes_visited, 0u);
  }
}

TEST(RuntimeBudget, ExpiredDeadlineWindsDownCleanly) {
  const UncertainDatabase db = MakeTestDb(42);
  MiningRequest request = BaseRequest(42);
  const MiningResult full = Mine(db, request);
  request.budget.deadline_seconds = 1e-9;  // Expired at the first poll.
  const MiningResult result = Mine(db, request);
  EXPECT_EQ(result.outcome(), Outcome::kDeadlineExceeded);
  EXPECT_FALSE(result.ok());
  ExpectVerifiedPrefix(result, full);
}

TEST(RuntimeBudget, MemoryBudgetTripsOnTheVerticalIndex) {
  // One byte of budget: charging the vertical index at run start already
  // exceeds it, so the run stops before expanding anything.
  const UncertainDatabase db = MakeTestDb(42);
  MiningRequest request = BaseRequest(42);
  request.budget.max_resident_bytes = 1;
  const MiningResult result = Mine(db, request);
  EXPECT_EQ(result.outcome(), Outcome::kBudgetExhausted);
  EXPECT_TRUE(result.itemsets.empty());
  EXPECT_EQ(result.stats.nodes_visited, 0u);
}

TEST(RuntimeBudget, NaiveChargesOneVerticalIndex) {
  // Naive's PFI stage mines over the run's own index, so a memory budget
  // with room for one index (but not for two) lets a standalone run
  // complete with the unbudgeted answer.
  const UncertainDatabase db = MakeTestDb(7);
  MiningRequest request = BaseRequest(7);
  request.algorithm = Algorithm::kNaive;
  request.params.min_sup = 10;
  request.params.pfct = 0.4;
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  const MiningResult full = Mine(db, request);
  ASSERT_EQ(full.outcome(), Outcome::kComplete);
  ASSERT_FALSE(full.itemsets.empty());

  const VerticalIndex index(db, request.params.tidset_mode);
  request.budget.max_resident_bytes = index.MemoryBytes() * 3 / 2;
  const MiningResult budgeted = Mine(db, request);
  EXPECT_EQ(budgeted.outcome(), Outcome::kComplete);
  ExpectIdenticalEntries(budgeted, full);
}

TEST(RuntimeBudget, DeadlinePressureDegradesExactFcpToSampler) {
  // A far-away deadline with an already-passed degradation point: the
  // run completes, but exact-eligible FCP evaluations switch to the
  // ApproxFCP sampler and are counted.
  const UncertainDatabase db = MakePaperExampleDb();
  MiningRequest request;
  request.params.min_sup = 2;
  request.params.pfct = 0.1;
  request.params.exact_event_limit = 25;
  // Bounds pruning would decide everything on this tiny example; turn it
  // off so FCP evaluations actually run.
  request.params.pruning.fcp_bounds = false;
  const MiningResult exact = Mine(db, request);
  ASSERT_GT(exact.stats.exact_fcp_computations, 0u);
  ASSERT_EQ(exact.stats.degraded_fcp_evals, 0u);

  request.budget.deadline_seconds = 3600.0;
  request.budget.degrade_fraction = 1e-12;
  const MiningResult degraded = Mine(db, request);
  EXPECT_EQ(degraded.outcome(), Outcome::kComplete);
  EXPECT_FALSE(degraded.stats.truncated);
  EXPECT_EQ(degraded.stats.exact_fcp_computations, 0u);
  EXPECT_GT(degraded.stats.degraded_fcp_evals, 0u);
  EXPECT_EQ(degraded.stats.degraded_fcp_evals,
            degraded.stats.sampled_fcp_computations);
  // Degraded estimates still decide the same itemsets here (generous
  // epsilon/delta defaults on a tiny example keep estimates near truth).
  EXPECT_EQ(degraded.itemsets.size(), exact.itemsets.size());
}

TEST(RuntimeBudget, SinksFlushOnStoppedRuns) {
  // Satellite contract: the final progress callback and buffered trace
  // events are delivered even when the run is cancelled.
  const UncertainDatabase db = MakeTestDb(42);
  CancelToken token;
  token.RequestCancel();
  MiningRequest request = BaseRequest(42);
  request.cancel = &token;
  request.progress_interval = 1;
  std::size_t calls = 0;
  request.progress = [&calls](const MiningProgress&) { ++calls; };
  MemoryTraceSink sink;
  request.trace = &sink;
  const MiningResult result = Mine(db, request);
  EXPECT_EQ(result.outcome(), Outcome::kCancelled);
  EXPECT_GE(calls, 1u) << "final progress flush must fire when cancelled";
  const std::vector<TraceEvent> events = sink.TakeSnapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, TraceEvent::Kind::kRunBegin);
  EXPECT_EQ(events.back().kind, TraceEvent::Kind::kRunEnd);
  bool saw_truncated = false;
  for (const TraceEvent& event : events) {
    if (event.kind == TraceEvent::Kind::kCounter &&
        event.name == "truncated") {
      saw_truncated = true;
      EXPECT_EQ(event.value, 1u);
    }
  }
  EXPECT_TRUE(saw_truncated);
}

TEST(RuntimeBudget, InvalidRequestReportsWithoutAborting) {
  const UncertainDatabase db = MakePaperExampleDb();
  MiningRequest request;
  request.params.min_sup = 0;
  const MiningResult result = Mine(db, request);
  EXPECT_EQ(result.outcome(), Outcome::kInvalidRequest);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.itemsets.empty());
  EXPECT_NE(result.status_message.find("min_sup"), std::string::npos)
      << result.status_message;
}

TEST(RuntimeBudget, ExactOraclesHonorNodeBudgets) {
  TransactionDatabase db;
  db.Add(Itemset{0, 1, 2, 3});
  db.Add(Itemset{0, 1, 2});
  db.Add(Itemset{1, 2, 3});
  db.Add(Itemset{0, 2, 3});
  db.Add(Itemset{0, 1});
  const std::vector<SupportedItemset> full_closed = MineClosedItemsets(db, 1);
  const std::vector<SupportedItemset> full_charm =
      CharmMineClosedItemsets(db, 1);
  ASSERT_GT(full_closed.size(), 2u);

  RunBudget budget;
  budget.max_nodes = 2;
  {
    RunController controller(budget, nullptr);
    std::vector<SupportedItemset> partial;
    MineClosedItemsetsInto(
        db, 1,
        [&partial](const Itemset& items, std::size_t support) {
          partial.push_back(SupportedItemset{items, support});
        },
        nullptr, &controller);
    EXPECT_EQ(controller.outcome(), Outcome::kBudgetExhausted);
    EXPECT_LT(partial.size(), full_closed.size());
  }
  {
    RunController controller(budget, nullptr);
    const std::vector<SupportedItemset> partial =
        CharmMineClosedItemsets(db, 1, nullptr, &controller);
    EXPECT_EQ(controller.outcome(), Outcome::kBudgetExhausted);
    EXPECT_LT(partial.size(), full_charm.size());
    for (const SupportedItemset& entry : partial) {
      bool found = false;
      for (const SupportedItemset& reference : full_charm) {
        if (entry == reference) found = true;
      }
      EXPECT_TRUE(found) << entry.items.ToString();
    }
  }
}

}  // namespace
}  // namespace pfci
