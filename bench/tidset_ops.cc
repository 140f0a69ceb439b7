// TidSet kernel microbenchmark: per-op cost of the sparse (sorted vector)
// and dense (bitmap) representations across a density x universe sweep,
// plus the galloping skewed-intersection case and the Mushroom-shaped
// extension-event cases (count-then-skip against materializing, the
// allocation-free miss walk against a materialized a \ b). Prints a table
// and emits BENCH_tidset.json (one object per measurement) so the perf
// trajectory of the data layer is machine-readable across commits.
//
// On any machine the interesting ratio is ns/op dense vs sparse at the
// same density: the adaptive policy's 1/16 threshold should sit near the
// crossover. PFCI_BENCH_SCALE=full multiplies the repetition budget.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/data/tidlist.h"
#include "src/data/tidset.h"
#include "src/harness/dataset_factory.h"
#include "src/harness/table_printer.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace pfci {
namespace {

TidList RandomTids(std::size_t universe, double density, Rng& rng) {
  TidList tids;
  for (Tid t = 0; t < universe; ++t) {
    if (rng.NextBernoulli(density)) tids.push_back(t);
  }
  return tids;
}

std::string FixedPoint(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

struct Measurement {
  std::string op;
  std::size_t universe;
  double density;
  const char* mode;
  double ns_per_op;
  std::size_t result_size;
};

std::vector<Measurement> g_measurements;
std::uint64_t g_sink = 0;  // Defeats dead-code elimination.

/// Times `body` (which must fold its result into g_sink) over `reps`
/// repetitions and records one measurement row.
template <typename Body>
void Measure(const std::string& op, std::size_t universe, double density,
             const char* mode, std::size_t reps, std::size_t result_size,
             Body&& body) {
  // One warmup pass, then the timed loop.
  body();
  Stopwatch timer;
  for (std::size_t r = 0; r < reps; ++r) body();
  const double ns =
      timer.ElapsedSeconds() * 1e9 / static_cast<double>(reps);
  g_measurements.push_back(
      Measurement{op, universe, density, mode, ns, result_size});
}

void SweepPair(std::size_t universe, double density, std::size_t reps,
               Rng& rng) {
  const TidList a_tids = RandomTids(universe, density, rng);
  const TidList b_tids = RandomTids(universe, density, rng);
  for (const TidSetMode mode : {TidSetMode::kSparse, TidSetMode::kDense}) {
    const TidSet a(a_tids, universe, mode);
    const TidSet b(b_tids, universe, mode);
    const char* name = TidSetModeName(mode);
    const std::size_t isize = IntersectSize(a, b);
    Measure("intersect_size", universe, density, name, reps, isize,
            [&] { g_sink += IntersectSize(a, b); });
    Measure("intersect", universe, density, name, reps, isize,
            [&] { g_sink += Intersect(a, b).size(); });
    Measure("difference_walk", universe, density, name, reps,
            a.size() - isize, [&] {
              ForEachInDifference(a, b, [](Tid tid) {
                g_sink += tid;
                return true;
              });
            });
    Measure("subset", universe, density, name, reps, isize,
            [&] { g_sink += IsSubsetOf(a, b) ? 1 : 0; });
  }
}

/// The galloping case: |small| * 32 <= |big|, both sparse. The merge
/// baseline is what the same sizes cost through the dense bitmap (scan of
/// the whole universe) — galloping should win by a wide margin.
void SweepSkew(std::size_t universe, std::size_t reps, Rng& rng) {
  const double big_density = 0.5;
  const double small_density = big_density / 64.0;  // ~128x size skew.
  const TidList big_tids = RandomTids(universe, big_density, rng);
  const TidList small_tids = RandomTids(universe, small_density, rng);
  for (const TidSetMode mode : {TidSetMode::kSparse, TidSetMode::kDense}) {
    const TidSet big(big_tids, universe, mode);
    const TidSet small_set(small_tids, universe, mode);
    const std::size_t isize = IntersectSize(small_set, big);
    Measure("intersect_skew", universe, small_density, TidSetModeName(mode),
            reps, isize, [&] { g_sink += IntersectSize(small_set, big); });
  }
}

/// A uniform random subset of `tids` with `count` members, ascending.
TidList Sample(const TidList& tids, std::size_t count, Rng& rng) {
  TidList out;
  for (std::size_t i = 0; i < tids.size() && out.size() < count; ++i) {
    const std::size_t left = tids.size() - i;
    if (rng.NextBelow(left) < count - out.size()) out.push_back(tids[i]);
  }
  return out;
}

/// The extension-event shape of the Mushroom-like workload (universe 8124,
/// min_sup 450): X's cover has ~600 tids, each item's cover 450-600.
/// Under the adaptive rule a 600-member set is a bitmap and a 450-member
/// one a sorted vector. Two events per X: an unrelated item, whose joint
/// count falls below min_sup, and a correlated one that survives.
///   - count_skip / materialize: deciding the count floor with
///     IntersectSize, against building Tids(X+e) and reading its size.
///   - miss_walk / miss_materialize: log Π (1 - p) over X \ e summed by
///     the allocation-free walk, against the materialize-then-sum path
///     (the a \ b set built as a TidSet, then summed in tid order).
void SweepMushroomShaped(std::size_t reps, Rng& rng) {
  const std::size_t universe = 8124;
  const std::size_t min_sup = 450;
  std::vector<double> log_absent(universe);
  for (double& value : log_absent) {
    value = std::log1p(-(0.05 + 0.9 * rng.NextDouble()));
  }
  const TidList x_tids = RandomTids(universe, 600.0 / universe, rng);
  const TidList unrelated = RandomTids(universe, 500.0 / universe, rng);
  const TidList inside = Sample(x_tids, 540, rng);
  const TidList outside = RandomTids(universe, 20.0 / universe, rng);
  TidList correlated;
  std::set_union(inside.begin(), inside.end(), outside.begin(), outside.end(),
                 std::back_inserter(correlated));
  for (const TidSetMode mode :
       {TidSetMode::kAdaptive, TidSetMode::kSparse, TidSetMode::kDense}) {
    const TidSet x(x_tids, universe, mode);
    const char* name = TidSetModeName(mode);
    const TidList* const events[] = {&unrelated, &correlated};
    for (const TidList* e_tids : events) {
      const TidSet e(*e_tids, universe, mode);
      const std::string tag =
          e_tids == &unrelated ? "_unrelated" : "_correlated";
      const double density = static_cast<double>(e.size()) / universe;
      const std::size_t count = IntersectSize(x, e);
      Measure("mushroom_count_skip" + tag, universe, density, name, reps,
              count, [&] { g_sink += IntersectSize(x, e) < min_sup ? 1 : 0; });
      Measure("mushroom_materialize" + tag, universe, density, name, reps,
              count,
              [&] { g_sink += Intersect(x, e).size() < min_sup ? 1 : 0; });
      Measure("mushroom_miss_walk" + tag, universe, density, name, reps,
              x.size() - count, [&] {
                double sum = 0.0;
                ForEachInDifference(x, e, [&](Tid tid) {
                  sum += log_absent[tid];
                  return true;
                });
                g_sink += sum < -1.0 ? 1 : 0;
              });
      Measure("mushroom_miss_materialize" + tag, universe, density, name, reps,
              x.size() - count, [&] {
                TidList miss;
                x.ForEach([&](Tid tid) {
                  if (!e.Contains(tid)) miss.push_back(tid);
                });
                const TidSet miss_set(std::move(miss), universe, mode);
                double sum = 0.0;
                miss_set.ForEach([&](Tid tid) { sum += log_absent[tid]; });
                g_sink += sum < -1.0 ? 1 : 0;
              });
    }
  }
}

void WriteJson(const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < g_measurements.size(); ++i) {
    const Measurement& m = g_measurements[i];
    std::fprintf(out,
                 "  {\"op\": \"%s\", \"universe\": %zu, \"density\": %s, "
                 "\"mode\": \"%s\", \"ns_per_op\": %s, "
                 "\"result_size\": %zu}%s\n",
                 m.op.c_str(), m.universe, FormatDouble(m.density, 6).c_str(),
                 m.mode, FixedPoint(m.ns_per_op, 2).c_str(), m.result_size,
                 i + 1 < g_measurements.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("\nwrote %s (%zu measurements)\n", path, g_measurements.size());
}

}  // namespace
}  // namespace pfci

int main() {
  using namespace pfci;
  const BenchScale scale = ScaleFromEnv();
  const std::size_t budget =
      scale == BenchScale::kFull ? 64u << 20 : 8u << 20;
  std::printf("TidSet op microbenchmark (scale=%s)\n", ScaleName(scale));

  Rng rng(20260806);
  const std::size_t universes[] = {1024, 8192, 65536};
  // Densities straddle the adaptive threshold (1/16 = 0.0625).
  const double densities[] = {0.01, 0.03, 0.0625, 0.125, 0.25, 0.5};
  for (const std::size_t universe : universes) {
    for (const double density : densities) {
      // Keep reps * universe roughly constant so every row costs alike.
      const std::size_t reps = budget / universe;
      SweepPair(universe, density, reps, rng);
    }
    SweepSkew(universe, budget / universe, rng);
  }
  SweepMushroomShaped(budget / 8192, rng);

  TablePrinter table;
  table.SetHeader(
      {"op", "universe", "density", "mode", "ns/op", "result_size"});
  for (const Measurement& m : g_measurements) {
    table.AddRow({m.op, std::to_string(m.universe),
                  FormatDouble(m.density, 4), m.mode,
                  FixedPoint(m.ns_per_op, 1),
                  std::to_string(m.result_size)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("(sink=%llu)\n", static_cast<unsigned long long>(g_sink));
  WriteJson("BENCH_tidset.json");
  return 0;
}
