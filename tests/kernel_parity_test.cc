// Golden parity pin for the unified search kernel (DESIGN.md §12).
//
// The refactor of the five miners onto the search kernel must preserve
// the repo's strongest invariant bit-for-bit: results, stats counters,
// and trace event sequences, for every algorithm x tid-set mode x thread
// count, including fail-soft truncated partials. This test serializes
// all of that (wall-clock fields masked) and compares against goldens
// generated from the pre-refactor miners.
//
// Regenerate (only when an *intentional* behavior change lands) with:
//   PFCI_REGEN_GOLDENS=1 ./kernel_parity_test
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/mine.h"
#include "src/core/mining_result.h"
#include "src/data/uncertain_database.h"
#include "src/datagen/mushroom_generator.h"
#include "src/datagen/probability_assigner.h"
#include "src/harness/dataset_factory.h"
#include "src/util/string_util.h"
#include "src/util/trace.h"

namespace pfci {
namespace {

const char* TidSetModeLabel(TidSetMode mode) {
  switch (mode) {
    case TidSetMode::kAdaptive:
      return "adaptive";
    case TidSetMode::kSparse:
      return "sparse";
    case TidSetMode::kDense:
      return "dense";
  }
  return "?";
}

/// Serializes one run: entries at round-trip precision, the stats JSON
/// with its wall-clock fields zeroed, and the trace event sequence with
/// span/run durations masked.
std::string Serialize(const MiningResult& result,
                      const std::vector<TraceEvent>& events) {
  std::string out;
  for (const PfciEntry& entry : result.itemsets) {
    out += "entry " + entry.items.ToString() +
           " fcp=" + FormatDoubleRoundTrip(entry.fcp) +
           " pr_f=" + FormatDoubleRoundTrip(entry.pr_f) +
           " lo=" + FormatDoubleRoundTrip(entry.fcp_lower) +
           " hi=" + FormatDoubleRoundTrip(entry.fcp_upper) + " method=" +
           FcpMethodName(entry.method) + "\n";
  }
  MiningStats masked = result.stats;
  masked.seconds = 0.0;
  masked.candidate_seconds = 0.0;
  masked.search_seconds = 0.0;
  masked.merge_seconds = 0.0;
  out += "stats " + masked.ToJson() + "\n";
  out += "status " + result.status_message + "\n";
  for (const TraceEvent& event : events) {
    out += std::string("trace ") + TraceEventKindName(event.kind) + ":" +
           event.name + ":" + std::to_string(event.value) + "\n";
  }
  return out;
}

/// The full-size Mushroom-like database of `pfci_datagen mushroom
/// --transactions=8124 --seed=1` (mean 0.5, spread 0.25).
UncertainDatabase MakeDatagenMushroom() {
  MushroomParams exact;
  exact.num_transactions = 8124;
  exact.seed = 1;
  GaussianAssignerParams assign;
  assign.mean = 0.5;
  assign.spread = 0.25;
  assign.seed = 2;
  return AssignGaussianProbabilities(GenerateMushroomLike(exact), assign);
}

struct Scenario {
  std::string name;
  const UncertainDatabase* db;
  MiningRequest request;
};

/// The full parity matrix. Everything here must be deterministic for a
/// fixed request (the repo-wide contract), so the serialized output is a
/// pure function of this list.
std::vector<Scenario> BuildScenarios() {
  static const UncertainDatabase paper = MakePaperExampleDb();
  static const UncertainDatabase table4 = MakeTable4Db();
  static const UncertainDatabase quest = MakeUncertainQuest(BenchScale::kQuick);
  static const UncertainDatabase mushroom = MakeDatagenMushroom();

  const Algorithm kTupleAlgos[] = {
      Algorithm::kMpfci,           Algorithm::kMpfciBfs,
      Algorithm::kNaive,           Algorithm::kTopK,
      Algorithm::kPfi,             Algorithm::kExpectedSupport,
      Algorithm::kExpectedSupportFpGrowth, Algorithm::kBruteForce,
  };
  const TidSetMode kModes[] = {TidSetMode::kAdaptive, TidSetMode::kSparse,
                               TidSetMode::kDense};
  const std::size_t kThreads[] = {1, 2, 4};

  std::vector<Scenario> scenarios;
  const auto add = [&scenarios](const std::string& name,
                                const UncertainDatabase& db,
                                const MiningRequest& request) {
    scenarios.push_back(Scenario{name, &db, request});
  };

  // 8 algorithms x 3 tid-set modes x 1/2/4 threads on the paper example.
  for (Algorithm algorithm : kTupleAlgos) {
    for (TidSetMode mode : kModes) {
      for (std::size_t threads : kThreads) {
        MiningRequest request;
        request.algorithm = algorithm;
        request.params.min_sup = 2;
        request.params.pfct = 0.3;
        request.params.epsilon = 0.3;
        request.params.delta = 0.3;
        request.params.tidset_mode = mode;
        request.execution.num_threads = threads;
        if (algorithm == Algorithm::kTopK) request.top_k = 5;
        add(std::string("paper/") + AlgorithmName(algorithm) + "/" +
                TidSetModeLabel(mode) + "/t" + std::to_string(threads),
            paper, request);
      }
    }
  }

  // The five refactored miners on a larger generated database (deeper
  // trees: superset/subset pruning, Chernoff, bound decisions all fire).
  const Algorithm kRefactored[] = {Algorithm::kMpfci, Algorithm::kMpfciBfs,
                                   Algorithm::kNaive, Algorithm::kTopK,
                                   Algorithm::kPfi};
  for (Algorithm algorithm : kRefactored) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      MiningRequest request;
      request.algorithm = algorithm;
      request.params.min_sup = AbsoluteMinSup(quest.size(), 0.15);
      request.params.pfct = 0.2;
      request.params.epsilon = 0.4;
      request.params.delta = 0.3;
      if (algorithm == Algorithm::kTopK) request.top_k = 7;
      request.execution.num_threads = threads;
      add(std::string("quest/") + AlgorithmName(algorithm) + "/t" +
              std::to_string(threads),
          quest, request);
    }
  }

  // Top-k among many fcp = 1 ties on full-size Mushroom-like data. The
  // k-th best fcp rounds above 1, so the rising floor reaches 1: a child
  // whose DP PrF rounds above 1 but whose Lemma 4.1 bound is clamped to
  // 1 is rejected by the bound, and every decision at the k-boundary
  // hangs on exact PrF and bound values.
  for (std::size_t k : {std::size_t{20}, std::size_t{50}}) {
    MiningRequest request;
    request.algorithm = Algorithm::kTopK;
    request.params.min_sup = 450;
    request.params.pfct = 0.8;
    request.top_k = k;
    add("mushroom-ties/topk/k" + std::to_string(k), mushroom, request);
  }

  // Forced-sampling MPFCI (the degraded/sampled FCP path) on Table IV.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    MiningRequest request;
    request.algorithm = Algorithm::kMpfci;
    request.params.min_sup = 2;
    request.params.pfct = 0.2;
    request.params.epsilon = 0.4;
    request.params.delta = 0.3;
    request.params.force_sampling = true;
    request.execution.num_threads = threads;
    add("table4/mpfci-sampled/t" + std::to_string(threads), table4, request);
  }

  // Fail-soft truncation: a tiny node budget must yield the same verified
  // partial for every thread count (and both remaining tid-set modes).
  for (Algorithm algorithm : kRefactored) {
    for (TidSetMode mode : kModes) {
      for (std::size_t threads : kThreads) {
        MiningRequest request;
        request.algorithm = algorithm;
        request.params.min_sup = 2;
        request.params.pfct = 0.3;
        request.params.epsilon = 0.3;
        request.params.delta = 0.3;
        request.params.tidset_mode = mode;
        request.execution.num_threads = threads;
        request.budget.max_nodes = 3;
        if (algorithm == Algorithm::kTopK) request.top_k = 5;
        add(std::string("budget-nodes/") + AlgorithmName(algorithm) + "/" +
                TidSetModeLabel(mode) + "/t" + std::to_string(threads),
            paper, request);
      }
    }
  }

  // Sample-budget truncation through the sampled FCP path.
  for (std::size_t threads : kThreads) {
    MiningRequest request;
    request.algorithm = Algorithm::kNaive;
    request.params.min_sup = 2;
    request.params.pfct = 0.3;
    request.params.epsilon = 0.3;
    request.params.delta = 0.3;
    request.execution.num_threads = threads;
    request.budget.max_samples = 400;
    add("budget-samples/naive/t" + std::to_string(threads), paper, request);
  }
  return scenarios;
}

std::string GoldenPath() {
  return std::string(PFCI_SOURCE_DIR) + "/tests/golden/kernel_parity.golden";
}

std::string RunAll() {
  std::string out;
  for (const Scenario& scenario : BuildScenarios()) {
    MemoryTraceSink sink;
    MiningRequest request = scenario.request;
    request.trace = &sink;
    const MiningResult result = Mine(*scenario.db, request);
    out += "== " + scenario.name + "\n";
    out += Serialize(result, sink.TakeSnapshot());
  }
  return out;
}

TEST(KernelParity, MatchesPreRefactorGoldens) {
  const std::string actual = RunAll();
  if (std::getenv("PFCI_REGEN_GOLDENS") != nullptr) {
    std::ofstream file(GoldenPath(), std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << GoldenPath();
    file << actual;
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  std::ifstream file(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(file.good())
      << "missing golden " << GoldenPath()
      << " (generate with PFCI_REGEN_GOLDENS=1)";
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string expected = buffer.str();

  if (actual == expected) return;  // Bit-identical: the contract holds.

  // Report the first diverging scenario line for a readable failure.
  std::istringstream a(actual);
  std::istringstream e(expected);
  std::string a_line, e_line, section;
  std::size_t line_no = 0;
  while (true) {
    const bool a_ok = static_cast<bool>(std::getline(a, a_line));
    const bool e_ok = static_cast<bool>(std::getline(e, e_line));
    ++line_no;
    if (!a_ok && !e_ok) break;
    const std::string& cursor = e_ok ? e_line : a_line;
    if (cursor.rfind("== ", 0) == 0) section = cursor.substr(3);
    if (a_line != e_line || a_ok != e_ok) {
      FAIL() << "kernel parity broken at line " << line_no << " (scenario "
             << section << ")\n  golden: " << (e_ok ? e_line : "<eof>")
             << "\n  actual: " << (a_ok ? a_line : "<eof>");
    }
    a_line.clear();
    e_line.clear();
  }
}

}  // namespace
}  // namespace pfci
