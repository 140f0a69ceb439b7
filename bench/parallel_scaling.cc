// Thread-scaling of the parallel mining engine: wall-clock of Mine() at
// 1, 2, 4, 8 threads on the Fig. 5 workloads (MPFCI and Naive), plus the
// full Mushroom-like MPFCI workload (8124x117, min_sup 350) at 1, 2, 4
// threads. Every run is checked against the single-thread baseline for
// the determinism contract: the same itemsets with bit-identical fcp and
// pr_f, the same certification method, and equal nodes_visited, dp_runs
// and intersections counters.
//
// busy = process CPU / (wall x threads): the share of the thread budget
// that did work. An idle pool thread sleeps, so a low busy fraction
// means too few tasks, not spinning.
//
// Expected shape: near-linear speedup of the Naive stage-2 fan-out and of
// MPFCI's subtree tasks (first-level units plus the forks below them)
// while physical cores last, then flat. On a single-core machine every
// configuration degenerates to ~1.0x (the pool only adds scheduling
// overhead) — the speedup column is only meaningful when the hardware
// reports more than one CPU.
#include <sys/resource.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/mine.h"
#include "src/datagen/mushroom_generator.h"
#include "src/datagen/probability_assigner.h"
#include "src/harness/experiment.h"
#include "src/harness/table_printer.h"
#include "src/util/stopwatch.h"

namespace pfci {
namespace {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The determinism contract between a run and the 1-thread baseline.
bool Identical(const MiningResult& a, const MiningResult& b) {
  if (a.itemsets.size() != b.itemsets.size() ||
      a.stats.nodes_visited != b.stats.nodes_visited ||
      a.stats.dp_runs != b.stats.dp_runs ||
      a.stats.intersections != b.stats.intersections) {
    return false;
  }
  for (std::size_t i = 0; i < a.itemsets.size(); ++i) {
    const PfciEntry& x = a.itemsets[i];
    const PfciEntry& y = b.itemsets[i];
    if (!(x.items == y.items) || !SameBits(x.fcp, y.fcp) ||
        !SameBits(x.pr_f, y.pr_f) || x.method != y.method) {
      return false;
    }
  }
  return true;
}

void RunRequest(const char* name, const UncertainDatabase& db,
                MiningRequest request,
                const std::vector<std::size_t>& thread_counts) {
  std::printf("\n[%s / %s] %zu transactions, min_sup=%zu\n", name,
              AlgorithmName(request.algorithm), db.size(),
              request.params.min_sup);
  TablePrinter table;
  table.SetHeader(
      {"threads", "seconds", "speedup", "busy", "num_PFCI", "identical"});

  MiningResult base;
  for (const std::size_t threads : thread_counts) {
    request.execution.num_threads = threads;
    const double cpu_start = ProcessCpuSeconds();
    Stopwatch wall;
    MiningResult result = Mine(db, request);
    const double wall_seconds = wall.ElapsedSeconds();
    const double cpu = ProcessCpuSeconds() - cpu_start;
    const bool identical = threads == 1 || Identical(base, result);
    const double base_seconds =
        threads == 1 ? result.stats.seconds : base.stats.seconds;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  result.stats.seconds > 0.0
                      ? base_seconds / result.stats.seconds
                      : 0.0);
    char busy[32];
    std::snprintf(busy, sizeof(busy), "%.2f",
                  cpu / (wall_seconds * static_cast<double>(threads)));
    table.AddRow({std::to_string(threads),
                  bench::FormatSeconds(result.stats.seconds), speedup, busy,
                  std::to_string(result.itemsets.size()),
                  identical ? "yes" : "NO"});
    if (threads == 1) base = std::move(result);
  }
  std::printf("%s", table.Render().c_str());
}

void RunDataset(const char* name, const UncertainDatabase& db,
                Algorithm algorithm, BenchScale scale, bool mushroom) {
  MiningRequest request;
  request.params =
      bench::PaperDefaultParams(db, bench::DefaultRelMinSup(scale, mushroom));
  request.algorithm = algorithm;
  RunRequest(name, db, request, {1, 2, 4, 8});
}

/// The full Mushroom-like workload of the ROADMAP baseline:
/// `pfci_datagen mushroom --transactions=8124 --seed=1 --mean=0.5
/// --spread=0.25`, mined with `mine_cli DB 350 0.8`.
void RunFullMushroom() {
  MushroomParams mushroom;
  mushroom.seed = 1;
  GaussianAssignerParams assign;
  assign.mean = 0.5;
  assign.spread = 0.25;
  assign.seed = 2;
  const UncertainDatabase db =
      AssignGaussianProbabilities(GenerateMushroomLike(mushroom), assign);
  MiningRequest request;
  request.params.min_sup = 350;
  request.params.pfct = 0.8;
  RunRequest("Mushroom-like full", db, request, {1, 2, 4});
}

}  // namespace
}  // namespace pfci

int main() {
  using namespace pfci;
  const BenchScale scale = ScaleFromEnv();
  PrintBanner("Parallel scaling",
              std::string("Mine() thread sweep (scale=") + ScaleName(scale) +
                  ", hardware threads=" +
                  std::to_string(std::thread::hardware_concurrency()) + ")");
  const UncertainDatabase mushroom = MakeUncertainMushroom(scale);
  const UncertainDatabase quest = MakeUncertainQuest(scale);
  RunDataset("Mushroom-like", mushroom, Algorithm::kMpfci, scale,
             /*mushroom=*/true);
  RunDataset("Mushroom-like", mushroom, Algorithm::kNaive, scale,
             /*mushroom=*/true);
  RunDataset("T20I10D30KP40-like", quest, Algorithm::kMpfci, scale,
             /*mushroom=*/false);
  RunDataset("T20I10D30KP40-like", quest, Algorithm::kNaive, scale,
             /*mushroom=*/false);
  RunFullMushroom();
  std::printf(
      "\nAll rows must report identical=yes: the deterministic execution "
      "policy guarantees bit-identical output for every thread count.\n");
  return 0;
}
