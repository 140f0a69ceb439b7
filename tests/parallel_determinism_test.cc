// Parallel determinism: Mine() must produce bit-identical results —
// items, pr_f, and *sampled* fcp values included — for every thread
// count. See DESIGN.md §7 for the
// seed-derivation and in-order-merge scheme that makes this hold.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/brute_force.h"
#include "src/core/mine.h"
#include "src/datagen/probability_assigner.h"
#include "src/datagen/quest_generator.h"
#include "src/util/thread_pool.h"
#include "tests/fork_input.h"

namespace pfci {
namespace {

/// A small-but-not-trivial Quest dataset: large enough that the DFS has
/// many first-level subtrees to schedule and the sampler actually runs.
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

/// The telemetry counters are part of the determinism contract: after the
/// in-order merge they must be identical for every thread count and tid
/// set representation. Wall-clock fields (seconds, *_seconds) are the
/// only MiningStats members exempt.
void ExpectIdenticalStats(const MiningStats& a, const MiningStats& b) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.pruned_by_chernoff, b.pruned_by_chernoff);
  EXPECT_EQ(a.pruned_by_frequency, b.pruned_by_frequency);
  EXPECT_EQ(a.pruned_by_superset, b.pruned_by_superset);
  EXPECT_EQ(a.pruned_by_subset, b.pruned_by_subset);
  EXPECT_EQ(a.decided_by_bounds, b.decided_by_bounds);
  EXPECT_EQ(a.zero_by_count, b.zero_by_count);
  EXPECT_EQ(a.exact_fcp_computations, b.exact_fcp_computations);
  EXPECT_EQ(a.sampled_fcp_computations, b.sampled_fcp_computations);
  EXPECT_EQ(a.total_samples, b.total_samples);
  EXPECT_EQ(a.dp_runs, b.dp_runs);
  EXPECT_EQ(a.intersections, b.intersections);
  EXPECT_EQ(a.degraded_fcp_evals, b.degraded_fcp_evals);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.truncated, b.truncated);
}

/// Exact equality across every reported field — the contract is
/// bit-identical, not merely close.
void ExpectIdentical(const MiningResult& a, const MiningResult& b) {
  ASSERT_EQ(a.itemsets.size(), b.itemsets.size());
  for (std::size_t i = 0; i < a.itemsets.size(); ++i) {
    EXPECT_EQ(a.itemsets[i].items, b.itemsets[i].items);
    EXPECT_EQ(a.itemsets[i].fcp, b.itemsets[i].fcp);
    EXPECT_EQ(a.itemsets[i].pr_f, b.itemsets[i].pr_f);
    EXPECT_EQ(a.itemsets[i].fcp_lower, b.itemsets[i].fcp_lower);
    EXPECT_EQ(a.itemsets[i].fcp_upper, b.itemsets[i].fcp_upper);
    EXPECT_EQ(a.itemsets[i].method, b.itemsets[i].method);
  }
  ExpectIdenticalStats(a.stats, b.stats);
}

MiningResult MineWithThreads(const UncertainDatabase& db,
                             const MiningRequest& base,
                             std::size_t num_threads) {
  MiningRequest request = base;
  request.execution.num_threads = num_threads;
  return Mine(db, request);
}

class ParallelDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ParallelDeterminismTest, MpfciIdenticalAcrossThreadCounts) {
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  const MiningResult one = MineWithThreads(db, request, 1);
  EXPECT_FALSE(one.itemsets.empty());
  ExpectIdentical(one, MineWithThreads(db, request, 2));
  ExpectIdentical(one, MineWithThreads(db, request, 8));
}

TEST_P(ParallelDeterminismTest, MpfciSampledPathIdenticalAcrossThreadCounts) {
  // Force the Karp-Luby sampler on every FCP computation: this is the
  // path where per-batch RNG streams and in-order reduction carry the
  // whole determinism guarantee.
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  request.params.force_sampling = true;
  request.params.exact_event_limit = 0;
  request.params.pruning.fcp_bounds = false;
  // Loose tolerances: the determinism contract is independent of the
  // sample count, and tight ones make this test dominate the suite.
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  const MiningResult one = MineWithThreads(db, request, 1);
  EXPECT_FALSE(one.itemsets.empty());
  ExpectIdentical(one, MineWithThreads(db, request, 2));
  ExpectIdentical(one, MineWithThreads(db, request, 8));
}

TEST_P(ParallelDeterminismTest, BfsIdenticalAcrossThreadCounts) {
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.algorithm = Algorithm::kMpfciBfs;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  const MiningResult one = MineWithThreads(db, request, 1);
  ExpectIdentical(one, MineWithThreads(db, request, 2));
  ExpectIdentical(one, MineWithThreads(db, request, 8));
}

TEST_P(ParallelDeterminismTest, NaiveIdenticalAcrossThreadCounts) {
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.algorithm = Algorithm::kNaive;
  request.params.min_sup = 10;
  request.params.pfct = 0.4;
  request.params.seed = GetParam();
  // Loose tolerances, as above: Naive samples every PFI.
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  const MiningResult one = MineWithThreads(db, request, 1);
  ExpectIdentical(one, MineWithThreads(db, request, 2));
  ExpectIdentical(one, MineWithThreads(db, request, 8));
}

TEST_P(ParallelDeterminismTest, TopKIdenticalAcrossThreadCounts) {
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.algorithm = Algorithm::kTopK;
  request.top_k = 5;
  request.params.min_sup = 8;
  request.params.pfct = 0.0;
  request.params.seed = GetParam();
  const MiningResult one = MineWithThreads(db, request, 1);
  ExpectIdentical(one, MineWithThreads(db, request, 2));
  ExpectIdentical(one, MineWithThreads(db, request, 8));
}

TEST_P(ParallelDeterminismTest, MpfciIdenticalAcrossTidSetModes) {
  // The representation contract: forcing sparse-only or dense-only tid
  // sets changes memory layout and op kernels, never the mined result —
  // bit-identical itemsets, probabilities, and bounds at every thread
  // count, against the adaptive single-thread baseline.
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  request.params.tidset_mode = TidSetMode::kAdaptive;
  const MiningResult baseline = MineWithThreads(db, request, 1);
  EXPECT_FALSE(baseline.itemsets.empty());
  for (const TidSetMode mode :
       {TidSetMode::kAdaptive, TidSetMode::kSparse, TidSetMode::kDense}) {
    request.params.tidset_mode = mode;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      SCOPED_TRACE(std::string(TidSetModeName(mode)) + " threads=" +
                   std::to_string(threads));
      ExpectIdentical(baseline, MineWithThreads(db, request, threads));
    }
  }
}

TEST_P(ParallelDeterminismTest, SampledPathIdenticalAcrossTidSetModes) {
  // Same contract on the Karp-Luby sampled path: the sampler's RNG
  // streams must be untouched by the representation choice.
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  request.params.force_sampling = true;
  request.params.exact_event_limit = 0;
  request.params.pruning.fcp_bounds = false;
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  const MiningResult baseline = MineWithThreads(db, request, 1);
  EXPECT_FALSE(baseline.itemsets.empty());
  for (const TidSetMode mode : {TidSetMode::kSparse, TidSetMode::kDense}) {
    request.params.tidset_mode = mode;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE(std::string(TidSetModeName(mode)) + " threads=" +
                   std::to_string(threads));
      ExpectIdentical(baseline, MineWithThreads(db, request, threads));
    }
  }
}

TEST_P(ParallelDeterminismTest, NaiveIdenticalAcrossTidSetModes) {
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.algorithm = Algorithm::kNaive;
  request.params.min_sup = 10;
  request.params.pfct = 0.4;
  request.params.seed = GetParam();
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  const MiningResult baseline = MineWithThreads(db, request, 1);
  for (const TidSetMode mode : {TidSetMode::kSparse, TidSetMode::kDense}) {
    request.params.tidset_mode = mode;
    SCOPED_TRACE(TidSetModeName(mode));
    ExpectIdentical(baseline, MineWithThreads(db, request, 2));
  }
}

TEST_P(ParallelDeterminismTest, NodeBudgetTruncationIdenticalEverywhere) {
  // The determinism contract extends to interrupted runs: a logical node
  // budget cuts the search at a point that is a pure function of the
  // request, so the partial result — entries, sampled fcp values, and
  // counters — is bit-identical across thread counts and tid-set modes.
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  const MiningResult full = MineWithThreads(db, request, 1);
  ASSERT_GT(full.stats.nodes_visited, 4u);

  request.budget.max_nodes = full.stats.nodes_visited / 2;
  const MiningResult baseline = MineWithThreads(db, request, 1);
  EXPECT_EQ(baseline.outcome(), Outcome::kBudgetExhausted);
  for (const TidSetMode mode :
       {TidSetMode::kAdaptive, TidSetMode::kSparse, TidSetMode::kDense}) {
    request.params.tidset_mode = mode;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(TidSetModeName(mode)) + " threads=" +
                   std::to_string(threads));
      ExpectIdentical(baseline, MineWithThreads(db, request, threads));
    }
  }
}

TEST_P(ParallelDeterminismTest, PreCancelledRunIdenticalAcrossThreadCounts) {
  // Cancellation is scheduling-dependent in general, but a token that is
  // already triggered at Mine() entry stops every unit at its first
  // checkpoint — the one cancellation point with a determinism guarantee.
  const UncertainDatabase db = MakeTestDb(GetParam());
  CancelToken token;
  token.RequestCancel();
  MiningRequest request;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  request.cancel = &token;
  const MiningResult baseline = MineWithThreads(db, request, 1);
  EXPECT_EQ(baseline.outcome(), Outcome::kCancelled);
  EXPECT_TRUE(baseline.itemsets.empty());
  ExpectIdentical(baseline, MineWithThreads(db, request, 2));
  ExpectIdentical(baseline, MineWithThreads(db, request, 4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismTest,
                         ::testing::Values(1u, 7u, 42u));

// The fork path: on the Mushroom-like input the DFS forks heavy child
// subtrees as pool tasks, each with its own RNG scope and partial result.
// Forks must be as invisible as the first-level split: bit-identical
// entries and counters at every thread count and tid-set mode.

TEST(ParallelDeterminismForks, InputReachesForkCutoff) {
  EXPECT_TRUE(FirstRootForks(MakeForkingDb(), ForkingRequest().params))
      << "no child below the first root reaches kForkMinCost = "
      << kForkMinCost << "; the fork tests below would check nothing";
}

/// Checks every thread count × tid-set mode against the 1-thread
/// adaptive run, which it returns.
MiningResult ExpectIdenticalAcrossThreadsAndModes(const UncertainDatabase& db,
                                                  MiningRequest request) {
  request.params.tidset_mode = TidSetMode::kAdaptive;
  MiningResult baseline = MineWithThreads(db, request, 1);
  EXPECT_FALSE(baseline.itemsets.empty());
  for (const TidSetMode mode :
       {TidSetMode::kAdaptive, TidSetMode::kSparse, TidSetMode::kDense}) {
    request.params.tidset_mode = mode;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      SCOPED_TRACE(std::string(TidSetModeName(mode)) + " threads=" +
                   std::to_string(threads));
      ExpectIdentical(baseline, MineWithThreads(db, request, threads));
    }
  }
  return baseline;
}

TEST(ParallelDeterminismForks, MpfciIdenticalAcrossThreadsAndTidSetModes) {
  ExpectIdenticalAcrossThreadsAndModes(MakeForkingDb(), ForkingRequest());
}

TEST(ParallelDeterminismForks, SampledPathIdenticalAcrossThreadsAndModes) {
  // Every certification samples, so each forked subtree's RNG scope is
  // exercised; its draws must not depend on which thread runs the fork.
  MiningRequest request = ForkingRequest();
  request.params.force_sampling = true;
  request.params.exact_event_limit = 0;
  request.params.pruning.fcp_bounds = false;
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  EXPECT_GT(ExpectIdenticalAcrossThreadsAndModes(MakeForkingDb(), request)
                .stats.sampled_fcp_computations,
            0u);
}

TEST(ParallelDeterminismForks, NodeBudgetTruncationIdenticalAcrossThreads) {
  // A unit with a node quota runs its forks inline, in order, so the
  // truncation point stays the sequential prefix. The budget is split
  // fairly over the first-level units; these budgets cut the dominant
  // unit from its first few nodes to well past its first forks.
  const UncertainDatabase db = MakeForkingDb();
  MiningRequest request = ForkingRequest();
  const MiningResult full = MineWithThreads(db, request, 1);
  ASSERT_GT(full.stats.nodes_visited, 4u);
  for (const std::uint64_t multiple : {1u, 9u, 27u, 54u}) {
    request.budget.max_nodes = full.stats.nodes_visited * multiple / 2;
    const MiningResult baseline = MineWithThreads(db, request, 1);
    EXPECT_EQ(baseline.outcome(), Outcome::kBudgetExhausted);
    // Forks draw on their unit's quota, never around it.
    EXPECT_LE(baseline.stats.nodes_visited, request.budget.max_nodes);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                      std::size_t{8}}) {
      SCOPED_TRACE("max_nodes=" + std::to_string(request.budget.max_nodes) +
                   " threads=" + std::to_string(threads));
      ExpectIdentical(baseline, MineWithThreads(db, request, threads));
    }
  }
}

// The work counters are pinned, not only compared across settings:
// `intersections` counts one per logical set operation and
// `pruned_by_frequency` one per floor or exact-PrF rejection, whether or
// not the search materializes the tid-set the operation describes.
struct PinnedCounters {
  const char* run;
  std::uint64_t seed;
  std::uint64_t intersections;
  std::uint64_t pruned_by_frequency;
};

TEST(ParallelDeterminismCounters, IntersectionsAndFrequencyPrunesPinned) {
  const PinnedCounters pinned[] = {
      {"mpfci", 1, 61096, 411},  {"bfs", 1, 128695, 801},
      {"topk", 1, 14269, 645},   {"mpfci", 7, 26716, 545},
      {"bfs", 7, 80224, 1862},   {"topk", 7, 6795, 563},
      {"mpfci", 42, 25560, 376}, {"bfs", 42, 90979, 582},
      {"topk", 42, 12447, 353},
  };
  for (const PinnedCounters& pin : pinned) {
    SCOPED_TRACE(std::string(pin.run) + " seed=" + std::to_string(pin.seed));
    MiningRequest request;
    request.params.min_sup = 8;
    request.params.pfct = 0.3;
    request.params.seed = pin.seed;
    if (std::string(pin.run) == "bfs") {
      request.algorithm = Algorithm::kMpfciBfs;
    } else if (std::string(pin.run) == "topk") {
      request.algorithm = Algorithm::kTopK;
      request.top_k = 5;
      request.params.pfct = 0.0;
    }
    const MiningResult result =
        MineWithThreads(MakeTestDb(pin.seed), request, 2);
    EXPECT_EQ(result.stats.intersections, pin.intersections);
    EXPECT_EQ(result.stats.pruned_by_frequency, pin.pruned_by_frequency);
  }
  // The forking input, where the DFS forks below the first level.
  const UncertainDatabase db = MakeForkingDb();
  MiningRequest request = ForkingRequest();
  MiningResult result = MineWithThreads(db, request, 4);
  EXPECT_EQ(result.stats.intersections, 14720u);
  EXPECT_EQ(result.stats.pruned_by_frequency, 554u);
  request.algorithm = Algorithm::kMpfciBfs;
  result = MineWithThreads(db, request, 4);
  EXPECT_EQ(result.stats.intersections, 169874u);
  EXPECT_EQ(result.stats.pruned_by_frequency, 1135u);
}

TEST(ParallelDeterminism, BruteForceIdenticalAcrossThreadCounts) {
  // 17 transactions → 2^17 worlds → 8 fixed ranges: the parallel oracle
  // must reproduce the sequential one exactly.
  QuestParams quest;
  quest.num_transactions = 17;
  quest.avg_transaction_length = 4.0;
  quest.avg_pattern_length = 3.0;
  quest.num_items = 8;
  quest.num_patterns = 5;
  quest.seed = 3;
  GaussianAssignerParams assign;
  const UncertainDatabase db =
      AssignGaussianProbabilities(GenerateQuest(quest), assign);

  ThreadPool pool(4);
  ExecutionContext parallel;
  parallel.pool = &pool;

  const std::vector<FcpGroundTruth> seq = BruteForceAllFcp(db, 3);
  const std::vector<FcpGroundTruth> par = BruteForceAllFcp(db, 3, parallel);
  ASSERT_EQ(seq.size(), par.size());
  ASSERT_FALSE(seq.empty());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].items, par[i].items);
    EXPECT_EQ(seq[i].fcp, par[i].fcp);
  }

  const Itemset probe = seq.front().items;
  const WorldProbabilities a = BruteForceItemsetProbabilities(db, probe, 3);
  const WorldProbabilities b =
      BruteForceItemsetProbabilities(db, probe, 3, parallel);
  EXPECT_EQ(a.pr_f, b.pr_f);
  EXPECT_EQ(a.pr_c, b.pr_c);
  EXPECT_EQ(a.pr_fc, b.pr_fc);
}

}  // namespace
}  // namespace pfci
