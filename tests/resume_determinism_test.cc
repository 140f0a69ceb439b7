// Checkpoint/resume determinism contract (DESIGN.md §14): a run
// suspended by a budget, snapshotted, and resumed must equal the
// uninterrupted run bit-for-bit — entries and deterministic work
// counters — for every resumable algorithm, across tid-set modes and
// thread counts, including resumes under a DIFFERENT thread count or
// tid-set mode than the suspended run. Also pins the refusal paths
// (fingerprint/algorithm mismatch, torn or missing snapshots) and the
// round-trip of boundary probabilities (1e-12 and exactly 1.0).
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/mine.h"
#include "src/core/search/run_snapshot.h"
#include "src/data/database_io.h"
#include "src/datagen/probability_assigner.h"
#include "src/datagen/quest_generator.h"
#include "src/harness/dataset_factory.h"
#include "src/util/runtime.h"
#include "tests/fork_input.h"

namespace pfci {
namespace {

UncertainDatabase MakeTestDb(std::uint64_t seed) {
  QuestParams quest;
  quest.num_transactions = 60;
  quest.avg_transaction_length = 7.0;
  quest.avg_pattern_length = 4.0;
  quest.num_items = 18;
  quest.num_patterns = 10;
  quest.seed = seed;
  GaussianAssignerParams assign;
  assign.mean = 0.8;
  assign.spread = 0.1;
  assign.seed = seed + 1;
  return AssignGaussianProbabilities(GenerateQuest(quest), assign);
}

/// A fresh path per test case so parallel ctest invocations never race.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "pfci_resume_" + name + "_" +
         std::to_string(::getpid()) + ".snapshot";
}

struct PathCleaner {
  std::string path;
  ~PathCleaner() { std::remove(path.c_str()); }
};

MiningRequest BaseRequest(Algorithm algorithm) {
  MiningRequest request;
  request.algorithm = algorithm;
  request.params.min_sup = 6;
  request.params.pfct = 0.3;
  request.params.epsilon = 0.2;
  request.params.delta = 0.2;
  request.params.seed = 99;
  if (algorithm == Algorithm::kTopK) request.top_k = 5;
  return request;
}

void ExpectBitIdentical(const MiningResult& full, const MiningResult& resumed,
                        const std::string& label) {
  ASSERT_EQ(full.itemsets.size(), resumed.itemsets.size()) << label;
  for (std::size_t i = 0; i < full.itemsets.size(); ++i) {
    const PfciEntry& a = full.itemsets[i];
    const PfciEntry& b = resumed.itemsets[i];
    EXPECT_EQ(a.items, b.items) << label << " entry " << i;
    EXPECT_EQ(a.fcp, b.fcp) << label << " entry " << i;
    EXPECT_EQ(a.pr_f, b.pr_f) << label << " entry " << i;
    EXPECT_EQ(a.fcp_lower, b.fcp_lower) << label << " entry " << i;
    EXPECT_EQ(a.fcp_upper, b.fcp_upper) << label << " entry " << i;
    EXPECT_EQ(a.method, b.method) << label << " entry " << i;
  }
  // Deterministic work counters carry across the suspend: snapshot base
  // plus resumed work must equal the uninterrupted totals. dp_runs and
  // the cache counters are per-run evaluator state, not snapshot state.
  EXPECT_EQ(full.stats.nodes_visited, resumed.stats.nodes_visited) << label;
  EXPECT_EQ(full.stats.intersections, resumed.stats.intersections) << label;
  EXPECT_EQ(full.stats.total_samples, resumed.stats.total_samples) << label;
  EXPECT_EQ(full.stats.exact_fcp_computations,
            resumed.stats.exact_fcp_computations)
      << label;
  EXPECT_EQ(full.stats.sampled_fcp_computations,
            resumed.stats.sampled_fcp_computations)
      << label;
  EXPECT_EQ(full.stats.pruned_by_chernoff, resumed.stats.pruned_by_chernoff)
      << label;
  EXPECT_EQ(full.stats.pruned_by_superset, resumed.stats.pruned_by_superset)
      << label;
  EXPECT_EQ(full.stats.pruned_by_subset, resumed.stats.pruned_by_subset)
      << label;
  EXPECT_EQ(full.stats.decided_by_bounds, resumed.stats.decided_by_bounds)
      << label;
  EXPECT_EQ(full.stats.zero_by_count, resumed.stats.zero_by_count) << label;
  EXPECT_EQ(resumed.outcome(), Outcome::kComplete) << label;
  EXPECT_TRUE(resumed.stats.resumed) << label;
}

/// Suspends `request` mid-run via a budget sized off the full run,
/// writes a snapshot, resumes it, and checks the bit-identical contract.
/// Returns false when the budget did not suspend (run too small) — the
/// caller treats that as "nothing to check", not a failure.
bool SuspendAndResume(const UncertainDatabase& db, const MiningRequest& base,
                      const MiningResult& full, std::size_t resume_threads,
                      TidSetMode resume_mode, const std::string& label) {
  const std::string path = TempPath(label);
  PathCleaner cleaner{path};

  MiningRequest suspending = base;
  if (full.stats.total_samples > 0) {
    suspending.budget.max_samples = full.stats.total_samples / 2;
  } else {
    suspending.budget.max_nodes = full.stats.nodes_visited / 2;
  }
  suspending.snapshot.save_path = path;
  const MiningResult part = Mine(db, suspending);
  if (part.ok()) return false;  // Budget never tripped: nothing to resume.
  EXPECT_EQ(part.outcome(), Outcome::kBudgetExhausted) << label;
  EXPECT_GT(part.stats.snapshot_bytes, 0u) << label;

  // The suspended run is a verified prefix of the full answer.
  for (const PfciEntry& entry : part.itemsets) {
    const PfciEntry* reference = full.Find(entry.items);
    EXPECT_NE(reference, nullptr)
        << label << ": suspended entry " << entry.items.ToString()
        << " is not in the uninterrupted run";
    if (reference != nullptr) {
      EXPECT_EQ(entry.fcp, reference->fcp) << label;
      EXPECT_EQ(entry.pr_f, reference->pr_f) << label;
    }
  }

  MiningRequest resuming = base;
  resuming.execution.num_threads = resume_threads;
  resuming.params.tidset_mode = resume_mode;
  resuming.snapshot.resume_path = path;
  ExpectBitIdentical(full, Mine(db, resuming), label);
  return true;
}

TEST(ResumeDeterminism, MatchesUninterruptedAcrossAlgorithmsModesThreads) {
  const UncertainDatabase db = MakeTestDb(7);
  const Algorithm algorithms[] = {Algorithm::kMpfci, Algorithm::kMpfciBfs,
                                  Algorithm::kNaive, Algorithm::kTopK};
  const TidSetMode modes[] = {TidSetMode::kAdaptive, TidSetMode::kSparse,
                              TidSetMode::kDense};
  std::size_t exercised = 0;
  for (const Algorithm algorithm : algorithms) {
    for (const TidSetMode mode : modes) {
      for (const std::size_t threads : {1u, 2u, 4u}) {
        MiningRequest base = BaseRequest(algorithm);
        base.params.tidset_mode = mode;
        base.execution.num_threads = threads;
        const MiningResult full = Mine(db, base);
        ASSERT_EQ(full.outcome(), Outcome::kComplete);
        const std::string label = std::string(AlgorithmName(algorithm)) +
                                  "_m" + std::to_string(static_cast<int>(mode)) +
                                  "_t" + std::to_string(threads);
        if (SuspendAndResume(db, base, full, threads, mode, label)) {
          ++exercised;
        }
      }
    }
  }
  // The budgets are sized at half the full run's work, so the matrix
  // must actually suspend on this database — an all-skipped pass would
  // silently test nothing.
  EXPECT_GT(exercised, 24u);
}

TEST(ResumeDeterminism, ResumesUnderDifferentThreadCountAndTidsetMode) {
  // The fingerprint deliberately excludes execution policy and
  // tidset_mode: a snapshot taken single-threaded/adaptive resumes
  // under 4 threads/dense with the same bit-identical result.
  const UncertainDatabase db = MakeTestDb(11);
  MiningRequest base = BaseRequest(Algorithm::kMpfci);
  base.execution.num_threads = 1;
  base.params.tidset_mode = TidSetMode::kAdaptive;
  const MiningResult full = Mine(db, base);
  ASSERT_EQ(full.outcome(), Outcome::kComplete);
  ASSERT_TRUE(SuspendAndResume(db, base, full, /*resume_threads=*/4,
                               TidSetMode::kDense, "cross_thread_mode"));
}

TEST(ResumeDeterminism, ForkingRunResumesBitIdentically) {
  // On the Mushroom-like input the DFS forks below the first level. The
  // first-level subtree stays the snapshot unit: it returns only after
  // all of its forks finished, so a snapshot never holds half a unit.
  const UncertainDatabase db = MakeForkingDb();
  ASSERT_TRUE(FirstRootForks(db, ForkingRequest().params));
  for (const std::size_t threads : {1u, 4u}) {
    MiningRequest base = ForkingRequest();
    base.execution.num_threads = threads;
    const MiningResult full = Mine(db, base);
    ASSERT_EQ(full.outcome(), Outcome::kComplete);
    const std::size_t resume_threads = threads == 1 ? 4 : 1;
    EXPECT_TRUE(SuspendAndResume(db, base, full, resume_threads,
                                 TidSetMode::kAdaptive,
                                 "forking_t" + std::to_string(threads)));
  }
}

TEST(ResumeDeterminism, ChainedSuspendsAreAdditive) {
  // Suspend, resume into a second suspension, resume again: base
  // counters accumulate across the chain and the final totals still
  // match the uninterrupted run.
  const UncertainDatabase db = MakeTestDb(13);
  const MiningRequest base = BaseRequest(Algorithm::kMpfci);
  const MiningResult full = Mine(db, base);
  ASSERT_EQ(full.outcome(), Outcome::kComplete);
  ASSERT_GT(full.stats.nodes_visited, 8u);

  const std::string first = TempPath("chain_first");
  const std::string second = TempPath("chain_second");
  PathCleaner clean_first{first};
  PathCleaner clean_second{second};

  MiningRequest step1 = base;
  step1.budget.max_nodes = full.stats.nodes_visited / 3;
  step1.snapshot.save_path = first;
  const MiningResult part1 = Mine(db, step1);
  ASSERT_EQ(part1.outcome(), Outcome::kBudgetExhausted);
  ASSERT_GT(part1.stats.snapshot_bytes, 0u);

  MiningRequest step2 = base;
  step2.budget.max_nodes = full.stats.nodes_visited / 3;
  step2.snapshot.resume_path = first;
  step2.snapshot.save_path = second;
  const MiningResult part2 = Mine(db, step2);
  ASSERT_TRUE(part2.stats.resumed);
  // The second leg may or may not exhaust its own budget depending on
  // unit sizes; when it did suspend, finish from its snapshot.
  MiningRequest final_leg = base;
  if (part2.ok()) {
    ExpectBitIdentical(full, part2, "chain_completed_in_two");
    return;
  }
  ASSERT_GT(part2.stats.snapshot_bytes, 0u);
  final_leg.snapshot.resume_path = second;
  ExpectBitIdentical(full, Mine(db, final_leg), "chain_three_legs");
}

TEST(ResumeDeterminism, RestartMarkerAlgorithmsResumeFromScratch) {
  // Algorithms without frontier capture still honor save_path: a
  // pre-cancelled run writes a restart-only marker, and resuming from
  // it reruns from scratch — equal to a plain run, flagged resumed.
  const UncertainDatabase db = MakeTestDb(17);
  for (const Algorithm algorithm :
       {Algorithm::kPfi, Algorithm::kExpectedSupport}) {
    MiningRequest base = BaseRequest(algorithm);
    const MiningResult plain = Mine(db, base);
    ASSERT_EQ(plain.outcome(), Outcome::kComplete);

    const std::string path =
        TempPath(std::string("marker_") + AlgorithmName(algorithm));
    PathCleaner cleaner{path};
    CancelToken cancel;
    cancel.RequestCancel();
    MiningRequest cancelled = base;
    cancelled.cancel = &cancel;
    cancelled.snapshot.save_path = path;
    const MiningResult stopped = Mine(db, cancelled);
    ASSERT_EQ(stopped.outcome(), Outcome::kCancelled);
    ASSERT_GT(stopped.stats.snapshot_bytes, 0u);

    RunSnapshot marker;
    ASSERT_EQ(LoadRunSnapshot(path, &marker), "");
    EXPECT_FALSE(marker.has_frontier);

    MiningRequest resuming = base;
    resuming.snapshot.resume_path = path;
    const MiningResult resumed = Mine(db, resuming);
    ASSERT_EQ(resumed.outcome(), Outcome::kComplete);
    EXPECT_TRUE(resumed.stats.resumed);
    ASSERT_EQ(resumed.itemsets.size(), plain.itemsets.size());
    for (std::size_t i = 0; i < plain.itemsets.size(); ++i) {
      EXPECT_EQ(plain.itemsets[i].items, resumed.itemsets[i].items);
      EXPECT_EQ(plain.itemsets[i].pr_f, resumed.itemsets[i].pr_f);
    }
  }
}

TEST(ResumeDeterminism, MismatchedResumesAreRefused) {
  const UncertainDatabase db = MakeTestDb(19);
  const MiningRequest base = BaseRequest(Algorithm::kMpfci);
  const MiningResult full = Mine(db, base);
  ASSERT_EQ(full.outcome(), Outcome::kComplete);

  const std::string path = TempPath("mismatch");
  PathCleaner cleaner{path};
  MiningRequest suspending = base;
  suspending.budget.max_nodes = full.stats.nodes_visited / 2;
  suspending.snapshot.save_path = path;
  ASSERT_EQ(Mine(db, suspending).outcome(), Outcome::kBudgetExhausted);

  // Different result-relevant parameter: refused.
  MiningRequest wrong_minsup = base;
  wrong_minsup.params.min_sup = base.params.min_sup + 1;
  wrong_minsup.snapshot.resume_path = path;
  const MiningResult r1 = Mine(db, wrong_minsup);
  EXPECT_EQ(r1.outcome(), Outcome::kInvalidRequest);
  EXPECT_NE(r1.status_message.find("fingerprint"), std::string::npos)
      << r1.status_message;

  // Different algorithm: refused by name before the fingerprint.
  MiningRequest wrong_algo = BaseRequest(Algorithm::kMpfciBfs);
  wrong_algo.snapshot.resume_path = path;
  const MiningResult r2 = Mine(db, wrong_algo);
  EXPECT_EQ(r2.outcome(), Outcome::kInvalidRequest);
  EXPECT_NE(r2.status_message.find("algorithm"), std::string::npos)
      << r2.status_message;

  // Different database: refused.
  const UncertainDatabase other = MakeTestDb(20);
  MiningRequest same = base;
  same.snapshot.resume_path = path;
  EXPECT_EQ(Mine(other, same).outcome(), Outcome::kInvalidRequest);

  // Missing snapshot file: refused as data, not a crash.
  MiningRequest missing = base;
  missing.snapshot.resume_path = path + ".does-not-exist";
  EXPECT_EQ(Mine(db, missing).outcome(), Outcome::kInvalidRequest);
}

TEST(ResumeDeterminism, BaseCountersKeepTheirV1Order) {
  // The snapshot v1 `stats` line carries the 13 base counters in its own
  // order (degraded_fcp_evals before intersections, unlike the stats
  // JSON). Snapshots written by older builds must keep resuming, so the
  // line is pinned literally.
  std::uint64_t MiningStats::*const kBase[] = {
      &MiningStats::nodes_visited,
      &MiningStats::pruned_by_chernoff,
      &MiningStats::pruned_by_frequency,
      &MiningStats::pruned_by_superset,
      &MiningStats::pruned_by_subset,
      &MiningStats::decided_by_bounds,
      &MiningStats::zero_by_count,
      &MiningStats::exact_fcp_computations,
      &MiningStats::sampled_fcp_computations,
      &MiningStats::total_samples,
      &MiningStats::dp_runs,
      &MiningStats::intersections,
      &MiningStats::degraded_fcp_evals,
  };
  RunSnapshot snapshot;
  snapshot.algorithm = "mpfci";
  for (std::size_t i = 0; i < std::size(kBase); ++i) {
    snapshot.base.*kBase[i] = 101 + i;
  }
  snapshot.base.cache_hits = 999;  // Not snapshot state.
  const std::string text = SerializeRunSnapshot(snapshot);
  EXPECT_NE(text.find("\nstats 101 102 103 104 105 106 107 108 109 110 "
                      "111 113 112\n"),
            std::string::npos)
      << text;

  RunSnapshot parsed;
  std::string error;
  ASSERT_TRUE(ParseRunSnapshot(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.base.cache_hits, 0u);

  // Resume seeding adds all 13, dp_runs included, and nothing else.
  MiningStats stats;
  for (const auto member : kBase) stats.*member = 1000;
  stats.cache_hits = 7;
  AddBaseStats(parsed.base, &stats);
  for (std::size_t i = 0; i < std::size(kBase); ++i) {
    EXPECT_EQ(stats.*kBase[i], 1101 + i) << "base counter " << i;
  }
  EXPECT_EQ(stats.cache_hits, 7u);
}

TEST(ResumeDeterminism, BoundaryProbabilitiesRoundTripBitExactly) {
  // 1e-12 and exactly-1.0 atoms must survive the snapshot text format
  // bit-for-bit: the serialized doubles go through
  // FormatDoubleRoundTrip, so parse(serialize(x)) == x exactly.
  RunSnapshot snapshot;
  snapshot.algorithm = "mpfci";
  snapshot.fingerprint = 0x1234abcd5678ef00ULL;
  snapshot.has_frontier = true;
  snapshot.base.nodes_visited = 3;
  PfciEntry entry;
  entry.items = Itemset({0, 2});
  entry.fcp = 1e-12;
  entry.pr_f = 1.0;
  entry.fcp_lower = 1e-12;
  entry.fcp_upper = 1.0;
  entry.method = FcpMethod::kExact;
  snapshot.entries.push_back(entry);
  WeightedItemset element;
  element.items = Itemset({1});
  element.weight = 1.0 - 1e-12;
  snapshot.frontier.push_back(element);
  element.weight = 1e-12;
  snapshot.frontier.push_back(element);
  snapshot.done = {1, 0};

  RunSnapshot parsed;
  std::string error;
  ASSERT_TRUE(ParseRunSnapshot(SerializeRunSnapshot(snapshot), &parsed,
                               &error))
      << error;
  ASSERT_EQ(parsed.entries.size(), 1u);
  EXPECT_EQ(parsed.entries[0].fcp, 1e-12);
  EXPECT_EQ(parsed.entries[0].pr_f, 1.0);
  EXPECT_EQ(parsed.entries[0].fcp_lower, 1e-12);
  EXPECT_EQ(parsed.entries[0].fcp_upper, 1.0);
  ASSERT_EQ(parsed.frontier.size(), 2u);
  EXPECT_EQ(parsed.frontier[0].weight, 1.0 - 1e-12);
  EXPECT_EQ(parsed.frontier[1].weight, 1e-12);
  EXPECT_EQ(parsed.done, (std::vector<std::uint8_t>{1, 0}));
}

TEST(ResumeDeterminism, SuspendResumeOnVanishingAndCertainAtoms) {
  // End-to-end on a database mixing 1e-12 and certain (p=1) tuples: the
  // snapshot's serialized probabilities sit exactly on the boundary
  // values the text format must preserve.
  UncertainDatabase db;
  db.Add({0, 1, 2, 3}, 1e-12);
  db.Add({0, 1, 2}, 1.0);
  db.Add({0, 1, 3}, 1.0);
  db.Add({1, 2, 3}, 1.0);
  db.Add({0, 2}, 0.5);
  db.Add({2, 3}, 1.0);
  MiningRequest base;
  base.algorithm = Algorithm::kMpfci;
  base.params.min_sup = 2;
  base.params.pfct = 0.25;
  base.params.seed = 5;
  const MiningResult full = Mine(db, base);
  ASSERT_EQ(full.outcome(), Outcome::kComplete);
  ASSERT_GT(full.stats.nodes_visited, 1u);
  SuspendAndResume(db, base, full, /*resume_threads=*/0,
                   TidSetMode::kAdaptive, "boundary_atoms");
}

}  // namespace
}  // namespace pfci
