// Regenerates Fig. 10 (a, b): compression quality — the number of frequent
// itemsets (FI), frequent closed itemsets (FCI), probabilistic frequent
// itemsets (PFI) and probabilistic frequent closed itemsets (PFCI) as
// min_sup varies, under two Gaussian probability assignments on the
// Mushroom-like dataset.
//
// FI/FCI come from the exact-data miners (FP-growth / closed miner); PFI
// from the DP-based PFI miner; PFCI from MPFCI — matching the paper's
// FP-growth / Closet+ / TODIS / MPFCI quartet.
//
// Expected shape (paper): FCI/FI and PFCI/PFI both shrink sharply as
// min_sup decreases (closed mining compresses probabilistic results as
// well as it compresses exact ones); the low-mean/high-variance setting
// (b) yields fewer probabilistic itemsets and weaker compression than the
// high-mean/low-variance setting (a).
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/mine.h"
#include "src/exact/closed_miner.h"
#include "src/exact/fp_growth.h"
#include "src/harness/experiment.h"
#include "src/harness/table_printer.h"

namespace pfci {
namespace {

// Bench runs go through the Mine() front door.
MiningResult MineViaRequest(const UncertainDatabase& db, Algorithm algorithm,
                            const MiningParams& params) {
  MiningRequest request;
  request.algorithm = algorithm;
  request.params = params;
  return Mine(db, request);
}

void RunSetting(const char* name, double mean, double spread,
                BenchScale scale) {
  const TransactionDatabase exact = MakeExactMushroom(scale);
  const UncertainDatabase uncertain =
      MakeUncertainMushroom(scale, mean, spread);
  std::printf("\n[%s] mean=%.1f spread=%.2f, %zu transactions\n", name, mean,
              spread, exact.size());

  TablePrinter table;
  table.SetHeader({"rel_min_sup", "FI", "FCI", "PFI", "PFCI", "FCI/FI",
                   "PFCI/PFI"});
  // Paper sweeps 0.1 .. 0.3 in this experiment.
  const std::vector<double> sweep =
      scale == BenchScale::kFull
          ? std::vector<double>{0.3, 0.25, 0.2, 0.15, 0.1}
          : std::vector<double>{0.3, 0.2, 0.15, 0.1};
  for (double rel : sweep) {
    const std::size_t min_sup = AbsoluteMinSup(exact.size(), rel);
    std::size_t num_fi = 0;
    FpGrowth(exact, min_sup,
             [&num_fi](const Itemset&, std::size_t) { ++num_fi; });
    std::size_t num_fci = 0;
    MineClosedItemsetsInto(
        exact, min_sup, [&num_fci](const Itemset&, std::size_t) { ++num_fci; });

    MiningParams params = bench::PaperDefaultParams(uncertain, rel);
    const std::size_t num_pfi =
        MineViaRequest(uncertain, Algorithm::kPfi, params).itemsets.size();
    const std::size_t num_pfci =
        MineViaRequest(uncertain, Algorithm::kMpfci, params).itemsets.size();

    char fci_ratio[32], pfci_ratio[32];
    std::snprintf(fci_ratio, sizeof(fci_ratio), "%.3f",
                  num_fi ? static_cast<double>(num_fci) / num_fi : 0.0);
    std::snprintf(pfci_ratio, sizeof(pfci_ratio), "%.3f",
                  num_pfi ? static_cast<double>(num_pfci) / num_pfi : 0.0);
    table.AddRow({std::to_string(rel), std::to_string(num_fi),
                  std::to_string(num_fci), std::to_string(num_pfi),
                  std::to_string(num_pfci), fci_ratio, pfci_ratio});
  }
  std::printf("%s", table.Render().c_str());
}

}  // namespace
}  // namespace pfci

int main() {
  using namespace pfci;
  const BenchScale scale = ScaleFromEnv();
  PrintBanner("Fig. 10",
              std::string("compression quality w.r.t. min_sup (scale=") +
                  ScaleName(scale) + ")");
  RunSetting("(a) high mean / low variance", 0.8, 0.1, scale);
  RunSetting("(b) low mean / high variance", 0.5, 0.25, scale);
  std::printf(
      "\nExpected shape: PFCI/PFI tracks FCI/FI (strong compression, "
      "stronger at low min_sup); setting (b) has fewer probabilistic "
      "itemsets and weaker compression than (a).\n");
  return 0;
}
