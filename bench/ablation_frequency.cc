// Ablation: exact DP vs distributional approximations for the frequent
// probability ([3]-style acceleration of PFI mining).
//
// Sweeps the frequency-evaluation mode of the PFI miner and reports
// runtime, exact-DP executions avoided, and result agreement with the
// exact answer — quantifying the speed/accuracy trade behind the related
// work the paper cites.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/mine.h"
#include "src/core/pfi_miner.h"
#include "src/harness/experiment.h"
#include "src/harness/table_printer.h"

namespace pfci {
namespace {

void RunDataset(const char* name, const UncertainDatabase& db,
                double rel) {
  const std::size_t min_sup = AbsoluteMinSup(db.size(), rel);
  std::printf("\n[%s] %zu transactions, min_sup=%zu, pft=0.8\n", name,
              db.size(), min_sup);

  // Reference answer with the exact DP: the PFI algorithm of Mine().
  MiningRequest request;
  request.algorithm = Algorithm::kPfi;
  request.params.min_sup = min_sup;
  request.params.pfct = 0.8;
  MiningResult exact;
  const double exact_seconds = TimeRun([&] { exact = Mine(db, request); });

  TablePrinter table;
  table.SetHeader({"mode", "time_s", "found", "precision", "recall"});
  char cell[32];
  for (FrequencyMode mode :
       {FrequencyMode::kExactDp, FrequencyMode::kNormal,
        FrequencyMode::kRefinedNormal, FrequencyMode::kPoisson}) {
    std::vector<PfiEntry> result;
    const double seconds = TimeRun([&] {
      result = internal::MinePfiApproximate(db, min_sup, 0.8, mode);
    });
    std::vector<Itemset> found, truth;
    for (const PfiEntry& entry : result) found.push_back(entry.items);
    for (const PfciEntry& entry : exact.itemsets) {
      truth.push_back(entry.items);
    }
    std::vector<std::string> row = {FrequencyModeName(mode),
                                    bench::FormatSeconds(seconds),
                                    std::to_string(result.size())};
    std::snprintf(cell, sizeof(cell), "%.4f", ResultPrecision(found, truth));
    row.push_back(cell);
    std::snprintf(cell, sizeof(cell), "%.4f", ResultRecall(found, truth));
    row.push_back(cell);
    table.AddRow(row);
  }
  std::printf("%s", table.Render().c_str());
  std::printf("(exact reference run: %.3fs, %zu PFIs)\n", exact_seconds,
              exact.itemsets.size());
}

}  // namespace
}  // namespace pfci

int main() {
  using namespace pfci;
  const BenchScale scale = ScaleFromEnv();
  PrintBanner("Ablation C",
              std::string("frequency-evaluation modes (scale=") +
                  ScaleName(scale) + ")");
  RunDataset("Mushroom-like", MakeUncertainMushroom(scale),
             pfci::bench::DefaultRelMinSup(scale, true));
  RunDataset("T20I10D30KP40-like", MakeUncertainQuest(scale),
             pfci::bench::DefaultRelMinSup(scale, false));
  std::printf(
      "\nReading: the normal approximations recover the exact answer "
      "almost perfectly at a fraction of the DP cost; Le Cam's Poisson "
      "approximation degrades on these dense (large-p) datasets, as its "
      "error bound 2*sum(p_i^2) predicts.\n");
  return 0;
}
