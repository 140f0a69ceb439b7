// Shared-scan batch throughput: one MiningSession::MineBatch over a
// 12-request mixed workload versus twelve independent cold Mine() calls
// (DESIGN.md §15).
//
// The workload interleaves MPFCI and PFI requests at six distinct
// thresholds each, submitted in descending-threshold order. BatchPlanner
// groups the requests by algorithm and runs each group highest threshold
// first (here, submission order), so every Poisson-binomial tail table a
// member caches answers the lower thresholds behind it.
//
// Acceptance: batch wall-clock <= 1/2 of the sequential loop, with every
// per-request result bit-identical to its cold standalone run.
//
// Writes BENCH_batch.json (schema checked by
// tools/check_bench_session.py, which dispatches on "kind": "batch")
// with per-request timings and the batch counters stamped by the
// serving layer (batch_size, batch_groups, shared_dp_hits).
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

struct RequestRecord {
  std::string algorithm;
  std::size_t min_sup = 0;
  std::size_t itemsets = 0;
  double sequential_seconds = 0.0;
  double batch_seconds = 0.0;
  std::uint64_t shared_dp_hits = 0;
  std::uint64_t queued_micros = 0;
};

/// Six strictly increasing absolute thresholds in the quick datasets'
/// interesting regime (the same band session_reuse sweeps).
std::vector<std::size_t> ThresholdGrid(std::size_t num_transactions) {
  const std::size_t low = AbsoluteMinSup(num_transactions, 0.15);
  const std::size_t high = AbsoluteMinSup(num_transactions, 0.20);
  std::vector<std::size_t> grid;
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t value = low + i * (high - low) / 5;
    if (grid.empty() || value > grid.back()) {
      grid.push_back(value);
    } else {
      grid.push_back(grid.back() + 1);  // Keep strictly increasing.
    }
  }
  return grid;
}

/// The mixed 12-request workload: MPFCI and PFI interleaved, thresholds
/// descending — submission order deliberately adversarial to reuse so
/// the measured win comes from the planner's regrouping, not from a
/// conveniently sorted input.
std::vector<MiningRequest> MakeWorkload(const std::vector<std::size_t>& grid) {
  std::vector<MiningRequest> requests;
  for (std::size_t i = grid.size(); i-- > 0;) {
    for (const Algorithm algorithm : {Algorithm::kMpfci, Algorithm::kPfi}) {
      MiningRequest request;
      request.algorithm = algorithm;
      request.params.min_sup = grid[i];
      request.params.pfct = 0.8;
      requests.push_back(request);
    }
  }
  return requests;
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

void WriteJson(const char* path, const UncertainDatabase& db,
               const std::vector<RequestRecord>& records,
               std::size_t batch_groups, double sequential_seconds,
               double batch_seconds, bool identical) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"schema\": 1,\n"
               "  \"kind\": \"batch\",\n"
               "  \"dataset\": \"T20I10D30KP40-like\",\n"
               "  \"transactions\": %zu,\n"
               "  \"requests\": %zu,\n"
               "  \"groups\": %zu,\n"
               "  \"sequential_seconds\": %.6f,\n"
               "  \"batch_seconds\": %.6f,\n"
               "  \"speedup\": %.4f,\n"
               "  \"identical\": %s,\n"
               "  \"per_request\": [\n",
               db.size(), records.size(), batch_groups, sequential_seconds,
               batch_seconds,
               batch_seconds > 0.0 ? sequential_seconds / batch_seconds : 0.0,
               identical ? "true" : "false");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RequestRecord& rec = records[i];
    std::fprintf(
        out,
        "    {\"algorithm\": \"%s\", \"min_sup\": %zu, \"itemsets\": %zu, "
        "\"sequential_seconds\": %.6f, \"batch_seconds\": %.6f, "
        "\"shared_dp_hits\": %llu, \"queued_micros\": %llu}%s\n",
        rec.algorithm.c_str(), rec.min_sup, rec.itemsets,
        rec.sequential_seconds, rec.batch_seconds,
        static_cast<unsigned long long>(rec.shared_dp_hits),
        static_cast<unsigned long long>(rec.queued_micros),
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s (%zu requests, %zu groups)\n", path, records.size(),
              batch_groups);
}

}  // namespace
}  // namespace pfci

int main() {
  using namespace pfci;
  const BenchScale scale = ScaleFromEnv();
  PrintBanner("Batch throughput",
              std::string("MineBatch shared scan vs sequential loop "
                          "(scale=") +
                  ScaleName(scale) + ")");

  const UncertainDatabase db = MakeUncertainQuest(scale);
  const std::vector<std::size_t> grid = ThresholdGrid(db.size());
  const std::vector<MiningRequest> requests = MakeWorkload(grid);
  std::printf("\n[T20I10D30KP40-like] %zu transactions, %zu requests "
              "(MPFCI+PFI interleaved, min_sup %zu..%zu submitted "
              "descending)\n",
              db.size(), requests.size(), grid.front(), grid.back());

  // Sequential baseline: an independent cold Mine() per request — index
  // rebuilt and every PrF tail re-derived each time, in submission order.
  std::vector<MiningResult> sequential(requests.size());
  const double sequential_begin = Now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    sequential[i] = Mine(db, requests[i]);
  }
  const double sequential_seconds = Now() - sequential_begin;

  // Batch: one cold session, one planned MineBatch. Open() is included —
  // the single index build is part of the amortized cost.
  const double batch_begin = Now();
  MiningSession session = MiningSession::Open(db);
  const std::vector<MiningResult> batch = session.MineBatch(requests);
  const double batch_seconds = Now() - batch_begin;

  bool identical = true;
  std::vector<RequestRecord> records(requests.size());
  TablePrinter table;
  table.SetHeader({"algorithm", "min_sup", "itemsets", "seq_s", "batch_s",
                   "shared_dp_hits", "queued_us"});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    RequestRecord& rec = records[i];
    rec.algorithm = AlgorithmName(requests[i].algorithm);
    rec.min_sup = requests[i].params.min_sup;
    rec.itemsets = sequential[i].itemsets.size();
    rec.sequential_seconds = sequential[i].stats.seconds;
    rec.batch_seconds = batch[i].stats.seconds;
    rec.shared_dp_hits = batch[i].stats.shared_dp_hits;
    rec.queued_micros = batch[i].stats.queued_micros;
    if (!SameItemsets(sequential[i], batch[i])) {
      identical = false;
      std::fprintf(stderr, "MISMATCH %s min_sup=%zu\n", rec.algorithm.c_str(),
                   rec.min_sup);
    }
    table.AddRow({rec.algorithm, std::to_string(rec.min_sup),
                  std::to_string(rec.itemsets),
                  bench::FormatSeconds(rec.sequential_seconds),
                  bench::FormatSeconds(rec.batch_seconds),
                  std::to_string(rec.shared_dp_hits),
                  std::to_string(rec.queued_micros)});
  }
  std::printf("%s", table.Render().c_str());

  const std::size_t batch_groups =
      batch.empty() ? 0 : static_cast<std::size_t>(batch[0].stats.batch_groups);
  const double speedup =
      batch_seconds > 0.0 ? sequential_seconds / batch_seconds : 0.0;
  std::printf("\naggregate: sequential %.3fs  batch %.3fs  speedup %.2fx  "
              "(%zu groups)\n",
              sequential_seconds, batch_seconds, speedup, batch_groups);
  const bool fast_enough = batch_seconds <= sequential_seconds / 2.0;
  std::printf("acceptance (batch <= 1/2 sequential): %s\n",
              fast_enough ? "PASS" : "FAIL");
  std::printf("results bit-identical to standalone runs: %s\n",
              identical ? "PASS" : "FAIL");

  WriteJson("BENCH_batch.json", db, records, batch_groups, sequential_seconds,
            batch_seconds, identical);
  return (identical && fast_enough) ? 0 : 1;
}
