// Micro-benchmarks of the library's primitives (google-benchmark): the
// Poisson-binomial DP, conditional sampling, extension-event
// construction, FCP bounds vs exact vs sampled, and the exact miners
// (tid-set operations have their own driver, bench/tidset_ops). These
// quantify the constants behind the figure-level results (e.g. why
// Lemma 4.4's O(m^2) bounds beat one ApproxFCP call).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>

#include "src/core/extension_events.h"
#include "src/core/fcp_bounds.h"
#include "src/core/fcp_exact.h"
#include "src/core/fcp_sampler.h"
#include "src/core/frequent_probability.h"
#include "src/data/vertical_index.h"
#include "src/exact/closed_miner.h"
#include "src/exact/fp_growth.h"
#include "src/harness/dataset_factory.h"
#include "src/prob/conditional_sampler.h"
#include "src/prob/poisson_binomial.h"
#include "src/util/random.h"
#include "src/util/runtime.h"

namespace pfci {
namespace {

// Regression gates that tripped in this process: each fails its
// benchmark (SkipWithError) and makes the binary exit 1.
int gate_failures = 0;

void FailGate(benchmark::State& state, const char* message) {
  state.SkipWithError(message);
  ++gate_failures;
}

std::vector<double> RandomProbs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> probs(n);
  for (double& p : probs) p = rng.NextDouble();
  return probs;
}

void BM_PoissonBinomialTail(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t threshold = n / 4;
  const std::vector<double> probs = RandomProbs(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PoissonBinomialTailAtLeast(probs, threshold));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PoissonBinomialTail)->Range(64, 8192)->Complexity();

// The quest-dp workload's DP shape: n = 5200 transactions with p ~
// N(.8, .1) clipped to [0, 1], threshold 4000, against the same (n, T)
// call on a vector of 0/1 atoms, which updates the same banded cells,
// T * (n - T + 1), and never holds a subnormal state. `time_per_cell` and
// `atom_time_per_cell` are the fastest call's time per cell update;
// `subnormal_ratio` is their quotient, which the flush-to-zero kernel
// keeps near 1 (subnormal arithmetic put it at 2.3-2.8). The benchmark
// FAILS if it exceeds 1.5.
void BM_PoissonBinomialTailQuestShaped(benchmark::State& state) {
  constexpr std::size_t kN = 5200;
  constexpr std::size_t kThreshold = 4000;
  Rng rng(6);
  std::vector<double> probs(kN);
  for (double& p : probs) p = std::clamp(rng.NextGaussian(0.8, 0.1), 0.0, 1.0);
  std::vector<double> atoms(kN);
  for (double& p : atoms) p = rng.NextBernoulli(0.8) ? 1.0 : 0.0;
  std::vector<double> scratch;
  const auto seconds_of_call = [&scratch](const std::vector<double>& v) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        PoissonBinomialTailAtLeast(v.data(), kN, kThreshold, &scratch));
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  double fastest = std::numeric_limits<double>::infinity();
  double fastest_atoms = fastest;
  for (auto _ : state) {
    fastest = std::min(fastest, seconds_of_call(probs));
    fastest_atoms = std::min(fastest_atoms, seconds_of_call(atoms));
  }
  const double cells = static_cast<double>(kThreshold * (kN - kThreshold + 1));
  const double ratio = fastest / fastest_atoms;
  state.counters["cells"] = cells;
  state.counters["time_per_cell"] = fastest / cells;
  state.counters["atom_time_per_cell"] = fastest_atoms / cells;
  state.counters["subnormal_ratio"] = ratio;
  // A few calls, so that the fastest of each is a warm one.
  if (state.iterations() >= 8 && ratio > 1.5) {
    FailGate(state,
             "subnormal ratio regressed: the Quest-shaped DP costs more "
             "than 1.5x the atom DP of equal cells per cell (is the "
             "kernel's arithmetic still flushing to zero?)");
  }
}
BENCHMARK(BM_PoissonBinomialTailQuestShaped);

void BM_PoissonBinomialPmf(benchmark::State& state) {
  const std::vector<double> probs =
      RandomProbs(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PoissonBinomialPmf(probs));
  }
}
BENCHMARK(BM_PoissonBinomialPmf)->Range(64, 2048);

void BM_ConditionalSamplerBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> probs = RandomProbs(n, 4);
  for (auto _ : state) {
    const ConditionalBernoulliSampler sampler(probs, n / 4);
    benchmark::DoNotOptimize(sampler.condition_probability());
  }
}
BENCHMARK(BM_ConditionalSamplerBuild)->Range(64, 2048);

void BM_ConditionalSamplerDraw(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> probs = RandomProbs(n, 5);
  const ConditionalBernoulliSampler sampler(probs, n / 4);
  Rng rng(6);
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    sampler.Sample(rng, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ConditionalSamplerDraw)->Range(64, 2048);

/// Fixture for the FCP benchmarks: a database small enough that extension
/// events retain non-negligible probabilities (on large databases the
/// forced-absence products underflow and every event vanishes, which
/// would make these benchmarks measure the empty case).
struct FcpFixture {
  FcpFixture() {
    Rng rng(99);
    for (int t = 0; t < 48; ++t) {
      std::vector<Item> items = {0};
      for (Item i = 1; i < 10; ++i) {
        if (rng.NextBernoulli(0.7)) items.push_back(i);
      }
      db.Add(Itemset(std::move(items)), 0.3 + 0.6 * rng.NextDouble());
    }
    index = std::make_unique<VerticalIndex>(db);
    freq = std::make_unique<FrequentProbability>(*index, 12);
  }

  UncertainDatabase db;
  std::unique_ptr<VerticalIndex> index;
  std::unique_ptr<FrequentProbability> freq;
};

FcpFixture& Fixture() {
  static FcpFixture* fixture = new FcpFixture();
  return *fixture;
}

void BM_ExtensionEventsBuild(benchmark::State& state) {
  FcpFixture& f = Fixture();
  const Itemset x{0};
  const TidSet tids = f.index->TidsOf(x);
  for (auto _ : state) {
    const ExtensionEventSet events(*f.index, *f.freq, x, tids);
    benchmark::DoNotOptimize(events.size());
  }
}
BENCHMARK(BM_ExtensionEventsBuild);

void BM_FcpBounds(benchmark::State& state) {
  FcpFixture& f = Fixture();
  const Itemset x{0};
  const TidSet tids = f.index->TidsOf(x);
  const double pr_f = f.freq->PrF(tids);
  const ExtensionEventSet events(*f.index, *f.freq, x, tids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeFcpBounds(pr_f, events));
  }
}
BENCHMARK(BM_FcpBounds);

void BM_FcpSampled(benchmark::State& state) {
  FcpFixture& f = Fixture();
  const Itemset x{0};
  const TidSet tids = f.index->TidsOf(x);
  const double pr_f = f.freq->PrF(tids);
  const ExtensionEventSet events(*f.index, *f.freq, x, tids);
  Rng rng(7);
  const double epsilon = 1.0 / static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApproxFcp(pr_f, events, epsilon, 0.1, rng));
  }
}
BENCHMARK(BM_FcpSampled)->Arg(4)->Arg(10)->Arg(20);

void BM_FpGrowthQuickMushroom(benchmark::State& state) {
  const TransactionDatabase db = MakeExactMushroom(BenchScale::kQuick);
  const std::size_t min_sup = AbsoluteMinSup(db.size(), 0.2);
  for (auto _ : state) {
    std::size_t count = 0;
    FpGrowth(db, min_sup, [&count](const Itemset&, std::size_t) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_FpGrowthQuickMushroom);

void BM_ClosedMinerQuickMushroom(benchmark::State& state) {
  const TransactionDatabase db = MakeExactMushroom(BenchScale::kQuick);
  const std::size_t min_sup = AbsoluteMinSup(db.size(), 0.2);
  for (auto _ : state) {
    std::size_t count = 0;
    MineClosedItemsetsInto(
        db, min_sup, [&count](const Itemset&, std::size_t) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_ClosedMinerQuickMushroom);

// The per-node Checkpoint() under a far-away deadline: the hot-loop
// configuration every budgeted run pays. The exponential poll stride
// (src/util/runtime.h) amortizes the steady-clock syscall to at most one
// read per kClockCheckStride calls; `clock_poll_ratio` reports the
// measured polls-per-checkpoint and the benchmark FAILS if the ratio
// regresses above 1/16 — twice the steady-state 1/32, so
// the warm-up polls of short runs never trip it.
void BM_RunControllerCheckpoint(benchmark::State& state) {
  RunBudget budget;
  budget.deadline_seconds = 3600.0;
  RunController controller(budget, nullptr);
  std::uint64_t calls = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.Checkpoint());
    ++calls;
  }
  const double ratio = calls == 0 ? 0.0
                                  : static_cast<double>(controller.clock_polls()) /
                                        static_cast<double>(calls);
  state.counters["clock_poll_ratio"] = ratio;
  if (calls > 1024 && ratio > 1.0 / 16.0) {
    FailGate(
        state,
        "clock-poll ratio regressed: Checkpoint() is reading the clock "
        "more than once per 16 calls (expected <= 1/32 steady-state)");
  }
}
BENCHMARK(BM_RunControllerCheckpoint);

}  // namespace
}  // namespace pfci

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return pfci::gate_failures == 0 ? 0 : 1;
}
