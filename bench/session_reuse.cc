// Serving-layer amortization: one MiningSession answering a 10-threshold
// min_sup sweep versus ten independent cold Mine() calls (DESIGN.md §11).
//
// The session path opens the session once (index built once) and serves
// the per-threshold requests as one MineBatch, which runs the highest
// threshold first — every Poisson-binomial tail table a run caches
// answers the lower thresholds without re-running the DP, and each
// lower run computes only the tables its own threshold needs. That first
// batch fills the cache; the warm pass then serves the same batch again.
//
// Two workloads on the paper's synthetic Quest dataset: the flagship
// MPFCI miner (PrF plus closedness work; the latter is per-run by design,
// sampled FCP is never cached) and PFI frequentness mining, where PrF
// evaluations dominate runtime (Tong et al.) and the cache pays off in
// full.
//
// Acceptance, and the exit code: every per-threshold result of both
// session batches is bit-identical to its cold run, and every member of
// the warm batch runs no DP (dp_runs == 0). Both are deterministic work
// facts. The wall-clock ratio (aggregate warm <= 1/2 aggregate cold) is
// printed and recorded as advisory: at quick scale the whole sweep takes
// tens of milliseconds, and the ratio swings with the host.
//
// Writes BENCH_session.json (schema checked by
// tools/check_bench_session.py) with per-workload grids, timings, and the
// session cache counters.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/mine.h"
#include "src/harness/experiment.h"
#include "src/harness/table_printer.h"
#include "src/serve/mining_session.h"

namespace pfci {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ThresholdRecord {
  std::size_t min_sup = 0;
  std::size_t itemsets = 0;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  double first_seconds = 0.0;
  std::uint64_t cold_dp_runs = 0;
  std::uint64_t first_dp_runs = 0;
  std::uint64_t warm_dp_runs = 0;
  std::uint64_t warm_cache_hits = 0;
  std::uint64_t warm_dp_reused = 0;
};

struct WorkloadRecord {
  std::string algorithm;
  double cold_seconds = 0.0;
  double first_seconds = 0.0;
  double warm_seconds = 0.0;
  bool identical = true;
  bool warm_dp_free = true;  ///< No warm member ran a DP.
  std::vector<ThresholdRecord> thresholds;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_evictions = 0;
};

/// Ten strictly increasing absolute thresholds forming a fine-grained
/// sweep around the quick datasets' interesting regime — the serving
/// pattern the session targets (dashboards and parameter exploration
/// re-query at nearby thresholds, where candidate sets overlap heavily
/// and the extended tail tables answer nearly everything).
std::vector<std::size_t> SweepGrid(std::size_t num_transactions) {
  const std::size_t low = AbsoluteMinSup(num_transactions, 0.15);
  const std::size_t high = AbsoluteMinSup(num_transactions, 0.20);
  std::vector<std::size_t> grid;
  for (std::size_t i = 0; i < 10; ++i) {
    const std::size_t value = low + i * (high - low) / 9;
    if (grid.empty() || value > grid.back()) {
      grid.push_back(value);
    } else {
      grid.push_back(grid.back() + 1);  // Keep strictly increasing.
    }
  }
  return grid;
}

bool SameItemsets(const MiningResult& a, const MiningResult& b) {
  if (a.itemsets.size() != b.itemsets.size()) return false;
  for (std::size_t i = 0; i < a.itemsets.size(); ++i) {
    if (!(a.itemsets[i].items == b.itemsets[i].items) ||
        a.itemsets[i].fcp != b.itemsets[i].fcp ||
        a.itemsets[i].pr_f != b.itemsets[i].pr_f) {
      return false;
    }
  }
  return true;
}

WorkloadRecord RunWorkload(const UncertainDatabase& db, Algorithm algorithm,
                           const std::vector<std::size_t>& grid) {
  WorkloadRecord workload;
  workload.algorithm = AlgorithmName(algorithm);
  std::printf("\n[%s] %zu thresholds, min_sup %zu..%zu\n",
              workload.algorithm.c_str(), grid.size(), grid.front(),
              grid.back());

  // One request per threshold, identical apart from min_sup.
  std::vector<MiningRequest> steps(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    steps[i].algorithm = algorithm;
    steps[i].params.pfct = 0.8;
    steps[i].params.min_sup = grid[i];
  }

  // Cold: an independent Mine() per threshold — index rebuilt and every
  // PrF re-derived each time.
  std::vector<MiningResult> cold(grid.size());
  const double cold_begin = Now();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    cold[i] = Mine(db, steps[i]);
  }
  workload.cold_seconds = Now() - cold_begin;

  // First: one session, one batch. Open() is included — the index build
  // is part of the amortized cost.
  const double first_begin = Now();
  MiningSession session = MiningSession::Open(db);
  const std::vector<MiningResult> first = session.MineBatch(steps);
  workload.first_seconds = Now() - first_begin;

  // Warm: the same batch on the filled session.
  const double warm_begin = Now();
  const std::vector<MiningResult> warm = session.MineBatch(steps);
  workload.warm_seconds = Now() - warm_begin;

  TablePrinter table;
  table.SetHeader({"min_sup", "itemsets", "cold_s", "first_s", "warm_s",
                   "cold_dp", "first_dp", "warm_dp", "hits", "dp_reused"});
  workload.thresholds.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ThresholdRecord& rec = workload.thresholds[i];
    rec.min_sup = grid[i];
    rec.itemsets = cold[i].itemsets.size();
    rec.cold_seconds = cold[i].stats.seconds;
    rec.first_seconds = first[i].stats.seconds;
    rec.warm_seconds = warm[i].stats.seconds;
    rec.cold_dp_runs = cold[i].stats.dp_runs;
    rec.first_dp_runs = first[i].stats.dp_runs;
    rec.warm_dp_runs = warm[i].stats.dp_runs;
    rec.warm_cache_hits = warm[i].stats.cache_hits;
    rec.warm_dp_reused = warm[i].stats.dp_reused;
    if (!SameItemsets(cold[i], first[i]) || !SameItemsets(cold[i], warm[i])) {
      workload.identical = false;
      std::fprintf(stderr, "MISMATCH %s min_sup=%zu\n",
                   workload.algorithm.c_str(), grid[i]);
    }
    if (rec.warm_dp_runs != 0) {
      workload.warm_dp_free = false;
      std::fprintf(stderr, "WARM DP %s min_sup=%zu dp_runs=%llu\n",
                   workload.algorithm.c_str(), grid[i],
                   static_cast<unsigned long long>(rec.warm_dp_runs));
    }
    table.AddRow({std::to_string(rec.min_sup), std::to_string(rec.itemsets),
                  bench::FormatSeconds(rec.cold_seconds),
                  bench::FormatSeconds(rec.first_seconds),
                  bench::FormatSeconds(rec.warm_seconds),
                  std::to_string(rec.cold_dp_runs),
                  std::to_string(rec.first_dp_runs),
                  std::to_string(rec.warm_dp_runs),
                  std::to_string(rec.warm_cache_hits),
                  std::to_string(rec.warm_dp_reused)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("%s: cold %.3fs  first %.3fs  warm %.3fs  speedup %.2fx\n",
              workload.algorithm.c_str(), workload.cold_seconds,
              workload.first_seconds, workload.warm_seconds,
              workload.warm_seconds > 0.0
                  ? workload.cold_seconds / workload.warm_seconds
                  : 0.0);

  workload.cache_bytes = session.cache_bytes();
  workload.cache_entries = session.cache_entries();
  workload.cache_evictions = session.cache_evictions();
  return workload;
}

void WriteJson(const char* path, const UncertainDatabase& db,
               const std::vector<WorkloadRecord>& workloads,
               double cold_total, double warm_total, bool identical,
               bool warm_dp_free) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"schema\": 1,\n"
               "  \"dataset\": \"T20I10D30KP40-like\",\n"
               "  \"transactions\": %zu,\n"
               "  \"cold_seconds\": %.6f,\n"
               "  \"warm_seconds\": %.6f,\n"
               "  \"speedup\": %.4f,\n"
               "  \"identical\": %s,\n"
               "  \"warm_dp_free\": %s,\n"
               "  \"workloads\": [\n",
               db.size(), cold_total, warm_total,
               warm_total > 0.0 ? cold_total / warm_total : 0.0,
               identical ? "true" : "false", warm_dp_free ? "true" : "false");
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const WorkloadRecord& workload = workloads[w];
    std::fprintf(out,
                 "    {\"algorithm\": \"%s\", \"cold_seconds\": %.6f, "
                 "\"first_seconds\": %.6f, \"warm_seconds\": %.6f, "
                 "\"identical\": %s, \"warm_dp_free\": %s,\n"
                 "     \"cache\": {\"bytes\": %llu, \"entries\": %llu, "
                 "\"evictions\": %llu},\n"
                 "     \"per_threshold\": [\n",
                 workload.algorithm.c_str(), workload.cold_seconds,
                 workload.first_seconds, workload.warm_seconds,
                 workload.identical ? "true" : "false",
                 workload.warm_dp_free ? "true" : "false",
                 static_cast<unsigned long long>(workload.cache_bytes),
                 static_cast<unsigned long long>(workload.cache_entries),
                 static_cast<unsigned long long>(workload.cache_evictions));
    for (std::size_t i = 0; i < workload.thresholds.size(); ++i) {
      const ThresholdRecord& rec = workload.thresholds[i];
      std::fprintf(
          out,
          "       {\"min_sup\": %zu, \"itemsets\": %zu, "
          "\"cold_seconds\": %.6f, \"first_seconds\": %.6f, "
          "\"warm_seconds\": %.6f, \"cold_dp_runs\": %llu, "
          "\"first_dp_runs\": %llu, \"warm_dp_runs\": %llu, "
          "\"cache_hits\": %llu, \"dp_reused\": %llu}%s\n",
          rec.min_sup, rec.itemsets, rec.cold_seconds, rec.first_seconds,
          rec.warm_seconds, static_cast<unsigned long long>(rec.cold_dp_runs),
          static_cast<unsigned long long>(rec.first_dp_runs),
          static_cast<unsigned long long>(rec.warm_dp_runs),
          static_cast<unsigned long long>(rec.warm_cache_hits),
          static_cast<unsigned long long>(rec.warm_dp_reused),
          i + 1 < workload.thresholds.size() ? "," : "");
    }
    std::fprintf(out, "     ]}%s\n",
                 w + 1 < workloads.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s (%zu workloads)\n", path, workloads.size());
}

}  // namespace
}  // namespace pfci

int main() {
  using namespace pfci;
  const BenchScale scale = ScaleFromEnv();
  PrintBanner("Session reuse",
              std::string("MiningSession sweep vs cold runs (scale=") +
                  ScaleName(scale) + ")");

  const UncertainDatabase db = MakeUncertainQuest(scale);
  const std::vector<std::size_t> grid = SweepGrid(db.size());
  std::printf("\n[T20I10D30KP40-like] %zu transactions\n", db.size());

  std::vector<WorkloadRecord> workloads;
  workloads.push_back(RunWorkload(db, Algorithm::kMpfci, grid));
  workloads.push_back(RunWorkload(db, Algorithm::kPfi, grid));

  double cold_total = 0.0;
  double warm_total = 0.0;
  bool identical = true;
  bool warm_dp_free = true;
  for (const WorkloadRecord& workload : workloads) {
    cold_total += workload.cold_seconds;
    warm_total += workload.warm_seconds;
    identical = identical && workload.identical;
    warm_dp_free = warm_dp_free && workload.warm_dp_free;
  }
  const double speedup =
      warm_total > 0.0 ? cold_total / warm_total : 0.0;
  std::printf("\naggregate: cold %.3fs  warm %.3fs  speedup %.2fx\n",
              cold_total, warm_total, speedup);
  std::printf("advisory (aggregate warm <= 1/2 cold): %s\n",
              warm_total <= cold_total / 2.0 ? "yes" : "no");
  std::printf("results bit-identical to cold runs: %s\n",
              identical ? "PASS" : "FAIL");
  std::printf("warm batch runs no DP: %s\n", warm_dp_free ? "PASS" : "FAIL");

  WriteJson("BENCH_session.json", db, workloads, cold_total, warm_total,
            identical, warm_dp_free);
  return (identical && warm_dp_free) ? 0 : 1;
}
