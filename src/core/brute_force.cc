#include "src/core/brute_force.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/data/world_enumerator.h"
#include "src/exact/closed_miner.h"
#include "src/exact/transaction_database.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/runtime.h"
#include "src/util/thread_pool.h"

namespace pfci {

namespace {

/// Worlds per parallel task. A constant (never derived from the thread
/// count) so the range partition — and with it every floating-point
/// summation order — is identical for every ExecutionContext.
constexpr std::uint64_t kWorldsPerRange = 16384;

/// Splits [0, NumWorlds(db)) into fixed-size ranges and runs
/// `process(range_index, begin, end)` for each, over `pool`, polling `rt`
/// at every range. Returns the number of ranges.
template <typename Process>
std::uint64_t ForEachWorldRange(const UncertainDatabase& db, ThreadPool* pool,
                                RunController& rt, const Process& process) {
  const std::uint64_t total = NumWorlds(db);
  const std::uint64_t num_ranges =
      total == 0 ? 0 : (total + kWorldsPerRange - 1) / kWorldsPerRange;
  const auto run = [&](std::size_t r) {
    // World-range checkpoint: once a global stop is requested the
    // remaining ranges are skipped. A world sum missing ranges is NOT a
    // verified partial (the probabilities would simply be wrong), so the
    // callers discard everything when the run was stopped.
    PFCI_FAILPOINT("brute/range");
    if (rt.Checkpoint()) return;
    const std::uint64_t begin = r * kWorldsPerRange;
    const std::uint64_t end = std::min(total, begin + kWorldsPerRange);
    process(r, begin, end);
  };
  ParallelFor(pool, static_cast<std::size_t>(num_ranges), run);
  return num_ranges;
}

}  // namespace

WorldProbabilities BruteForceItemsetProbabilities(
    const UncertainDatabase& db, const Itemset& x, std::size_t min_sup,
    const ExecutionContext& exec) {
  // A standalone call runs under a local unlimited controller.
  RunController unlimited;
  RunController& rt = exec.runtime != nullptr ? *exec.runtime : unlimited;
  std::vector<WorldProbabilities> partial;
  const std::uint64_t total = NumWorlds(db);
  partial.resize(static_cast<std::size_t>(
      total == 0 ? 0 : (total + kWorldsPerRange - 1) / kWorldsPerRange));
  ForEachWorldRange(
      db, exec.pool, rt,
      [&](std::size_t r, std::uint64_t begin, std::uint64_t end) {
        WorldProbabilities& sums = partial[r];
        EnumerateWorldsRange(
            db, begin, end, [&](const PossibleWorld& world, double prob) {
              const std::size_t support = world.Support(db, x);
              const bool frequent = support >= min_sup;
              const bool closed = world.IsClosed(db, x);
              if (frequent) sums.pr_f += prob;
              if (closed) sums.pr_c += prob;
              if (frequent && closed) sums.pr_fc += prob;
            });
      });
  if (rt.StopRequested()) return WorldProbabilities{};
  WorldProbabilities result;
  for (const WorldProbabilities& sums : partial) {
    result.pr_f += sums.pr_f;
    result.pr_c += sums.pr_c;
    result.pr_fc += sums.pr_fc;
  }
  return result;
}

std::vector<FcpGroundTruth> BruteForceAllFcp(const UncertainDatabase& db,
                                             std::size_t min_sup,
                                             const ExecutionContext& exec) {
  PFCI_CHECK(min_sup >= 1);
  // A standalone call runs under a local unlimited controller.
  RunController unlimited;
  RunController& rt = exec.runtime != nullptr ? *exec.runtime : unlimited;
  using FcpMap = std::unordered_map<Itemset, double, ItemsetHash>;
  std::vector<FcpMap> partial;
  const std::uint64_t total = NumWorlds(db);
  partial.resize(static_cast<std::size_t>(
      total == 0 ? 0 : (total + kWorldsPerRange - 1) / kWorldsPerRange));
  ForEachWorldRange(
      db, exec.pool, rt,
      [&](std::size_t r, std::uint64_t begin, std::uint64_t end) {
        FcpMap& fcp = partial[r];
        EnumerateWorldsRange(
            db, begin, end, [&](const PossibleWorld& world, double prob) {
              const TransactionDatabase world_db =
                  TransactionDatabase::FromWorld(db, world);
              MineClosedItemsetsInto(world_db, min_sup,
                                     [&](const Itemset& itemset, std::size_t) {
                                       fcp[itemset] += prob;
                                     });
            });
      });
  if (rt.StopRequested()) return {};
  // Merge in range order: each itemset's probability is accumulated over
  // ranges in the same sequence regardless of which thread mined what.
  FcpMap fcp;
  for (const FcpMap& part : partial) {
    for (const auto& [items, value] : part) fcp[items] += value;
  }
  std::vector<FcpGroundTruth> result;
  result.reserve(fcp.size());
  for (const auto& [items, value] : fcp) {
    result.push_back(FcpGroundTruth{items, value});
  }
  std::sort(result.begin(), result.end());
  return result;
}

namespace internal {

std::vector<FcpGroundTruth> BruteForceMinePfci(const UncertainDatabase& db,
                                               std::size_t min_sup,
                                               double pfct,
                                               const ExecutionContext& exec) {
  std::vector<FcpGroundTruth> all = BruteForceAllFcp(db, min_sup, exec);
  std::vector<FcpGroundTruth> result;
  for (auto& entry : all) {
    if (entry.fcp > pfct) result.push_back(std::move(entry));
  }
  return result;
}

}  // namespace internal

}  // namespace pfci
