// Fault injection through the PFCI_FAILPOINT sites compiled into every
// miner's early-exit checkpoints. Each test arms a site with a callback
// that triggers a fail-soft stop (cancel token, expired deadline) and
// asserts the run winds down through the intended path: a non-complete
// Outcome, no crash, and only verified entries in the partial result.
#include "src/util/failpoint.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/mine.h"
#include "src/data/item_uncertain_database.h"
#include "src/exact/charm_miner.h"
#include "src/exact/closed_miner.h"
#include "src/harness/dataset_factory.h"
#include "src/util/runtime.h"
#include "tests/item_level_input.h"

namespace pfci {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::CompiledIn()) {
      GTEST_SKIP() << "failpoints compiled out (PFCI_FAILPOINTS=off)";
    }
  }

  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(FailpointTest, RegistrySemantics) {
  EXPECT_EQ(failpoint::HitCount("x"), 0u);
  int fired = 0;
  failpoint::Arm("x", [&fired] { ++fired; });
  failpoint::Hit("x");
  failpoint::Hit("x");
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(failpoint::HitCount("x"), 2u);
  failpoint::Hit("y");  // Unarmed site: no effect.
  EXPECT_EQ(failpoint::HitCount("y"), 0u);
  failpoint::Arm("x");  // Re-arm as counting probe: count resets.
  EXPECT_EQ(failpoint::HitCount("x"), 0u);
  failpoint::Hit("x");
  EXPECT_EQ(fired, 2) << "re-arming replaced the action";
  failpoint::Disarm("x");
  failpoint::Hit("x");
  EXPECT_EQ(failpoint::HitCount("x"), 0u);
}

/// Every entry of a partial result must appear in the full run with
/// bit-identical values — the "verified partial" contract.
void ExpectVerifiedPrefix(const MiningResult& partial,
                          const MiningResult& full) {
  for (const PfciEntry& entry : partial.itemsets) {
    const PfciEntry* reference = full.Find(entry.items);
    ASSERT_NE(reference, nullptr)
        << entry.items.ToString() << " not in the unbudgeted run";
    EXPECT_EQ(entry.fcp, reference->fcp) << entry.items.ToString();
    EXPECT_EQ(entry.pr_f, reference->pr_f) << entry.items.ToString();
  }
}

MiningRequest PaperRequest(Algorithm algorithm) {
  MiningRequest request;
  request.algorithm = algorithm;
  request.params.min_sup = 2;
  request.params.pfct = 0.1;
  if (algorithm == Algorithm::kExpectedSupport ||
      algorithm == Algorithm::kExpectedSupportFpGrowth ||
      algorithm == Algorithm::kItemExpectedSupport) {
    request.min_esup = 1.0;
  }
  if (algorithm == Algorithm::kTopK) request.top_k = 5;
  return request;
}

/// PaperRequest with every FCP evaluation forced through the sampler.
MiningRequest SampledRequest(Algorithm algorithm) {
  MiningRequest request = PaperRequest(algorithm);
  request.params.force_sampling = true;
  request.params.exact_event_limit = 0;
  request.params.pruning.fcp_bounds = false;
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  return request;
}

/// The item-level input of the item-level sites.
ItemUncertainDatabase ItemDb() { return RandomItemDb(20, 3); }

/// Arms `site` to trip a CancelToken mid-run of `request` on `db`
/// (tuple- or item-level) and checks the miner winds down with
/// Outcome::kCancelled and a verified partial.
template <typename Db>
void ExpectCancellationAtSite(const char* site, const Db& db,
                              MiningRequest request) {
  SCOPED_TRACE(site);
  const MiningResult full = Mine(db, request);
  ASSERT_EQ(full.outcome(), Outcome::kComplete);

  CancelToken token;
  failpoint::Arm(site, [&token] { token.RequestCancel(); });
  request.cancel = &token;
  const MiningResult partial = Mine(db, request);
  failpoint::Disarm(site);

  EXPECT_GE(failpoint::HitCount(site), 0u);  // Disarmed: count is gone.
  EXPECT_EQ(partial.outcome(), Outcome::kCancelled);
  EXPECT_FALSE(partial.ok());
  EXPECT_TRUE(partial.stats.truncated);
  EXPECT_FALSE(partial.status_message.empty());
  ExpectVerifiedPrefix(partial, full);
}

TEST_F(FailpointTest, MpfciCancelsAtNodeExpansion) {
  ExpectCancellationAtSite("mpfci/node", MakePaperExampleDb(),
                           PaperRequest(Algorithm::kMpfci));
}

TEST_F(FailpointTest, MpfciCancelsAtSampleBatch) {
  ExpectCancellationAtSite("sampler/batch", MakePaperExampleDb(),
                           SampledRequest(Algorithm::kMpfci));
}

TEST_F(FailpointTest, BfsCancelsAtLevelBoundary) {
  ExpectCancellationAtSite("bfs/level", MakePaperExampleDb(),
                           PaperRequest(Algorithm::kMpfciBfs));
}

TEST_F(FailpointTest, NaiveCancelsAtClosednessCheck) {
  ExpectCancellationAtSite("naive/check", MakePaperExampleDb(),
                           PaperRequest(Algorithm::kNaive));
}

TEST_F(FailpointTest, TopKCancelsAtNodeExpansion) {
  ExpectCancellationAtSite("topk/node", MakePaperExampleDb(),
                           PaperRequest(Algorithm::kTopK));
}

TEST_F(FailpointTest, PfiCancelsAtNodeExpansion) {
  ExpectCancellationAtSite("pfi/node", MakePaperExampleDb(),
                           PaperRequest(Algorithm::kPfi));
}

TEST_F(FailpointTest, ExpectedSupportCancelsAtNodeExpansion) {
  ExpectCancellationAtSite("esup/node", MakePaperExampleDb(),
                           PaperRequest(Algorithm::kExpectedSupport));
}

TEST_F(FailpointTest, ExpectedSupportFpGrowthCancelsAtNodeExpansion) {
  ExpectCancellationAtSite("esup-fp/node", MakePaperExampleDb(),
                           PaperRequest(Algorithm::kExpectedSupportFpGrowth));
}

TEST_F(FailpointTest, ItemExpectedSupportCancelsAtNodeExpansion) {
  ExpectCancellationAtSite("item-esup/node", ItemDb(),
                           PaperRequest(Algorithm::kItemExpectedSupport));
}

TEST_F(FailpointTest, ItemPfiCancelsAtNodeExpansion) {
  ExpectCancellationAtSite("item-pfi/node", ItemDb(),
                           PaperRequest(Algorithm::kItemPfi));
}

TEST_F(FailpointTest, DeadlineInjectedAtNodeExpansion) {
  // The armed action burns past the (tiny) deadline, so the very next
  // checkpoint reports kDeadlineExceeded.
  const UncertainDatabase db = MakePaperExampleDb();
  MiningRequest request = PaperRequest(Algorithm::kMpfci);
  request.budget.deadline_seconds = 1e-3;
  failpoint::Arm("mpfci/node", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  const MiningResult result = Mine(db, request);
  EXPECT_EQ(result.outcome(), Outcome::kDeadlineExceeded);
  EXPECT_FALSE(result.ok());
}

TEST_F(FailpointTest, ClosedOracleCancelsAtNode) {
  TransactionDatabase db;
  db.Add(Itemset{0, 1, 2});
  db.Add(Itemset{0, 1});
  db.Add(Itemset{1, 2});
  db.Add(Itemset{0, 2});
  const std::vector<SupportedItemset> full = MineClosedItemsets(db, 1);
  ASSERT_FALSE(full.empty());

  CancelToken token;
  RunController controller(RunBudget{}, &token);
  failpoint::Arm("closed/node", [&token] { token.RequestCancel(); });
  std::vector<SupportedItemset> partial;
  MineClosedItemsetsInto(
      db, 1,
      [&partial](const Itemset& items, std::size_t support) {
        partial.push_back(SupportedItemset{items, support});
      },
      nullptr, &controller);
  EXPECT_EQ(controller.outcome(), Outcome::kCancelled);
  EXPECT_LT(partial.size(), full.size());
  for (const SupportedItemset& entry : partial) {
    EXPECT_NE(std::find(full.begin(), full.end(), entry), full.end())
        << entry.items.ToString();
  }
}

TEST_F(FailpointTest, CharmCancelsAtNode) {
  TransactionDatabase db;
  db.Add(Itemset{0, 1, 2});
  db.Add(Itemset{0, 1});
  db.Add(Itemset{1, 2});
  db.Add(Itemset{0, 2});
  const std::vector<SupportedItemset> full = CharmMineClosedItemsets(db, 1);
  ASSERT_FALSE(full.empty());

  CancelToken token;
  RunController controller(RunBudget{}, &token);
  failpoint::Arm("charm/node", [&token] { token.RequestCancel(); });
  const std::vector<SupportedItemset> partial =
      CharmMineClosedItemsets(db, 1, nullptr, &controller);
  EXPECT_EQ(controller.outcome(), Outcome::kCancelled);
  EXPECT_LT(partial.size(), full.size());
  // No insertion happens after the stop, so every returned set is
  // genuinely closed: it must appear in the full run.
  for (const SupportedItemset& entry : partial) {
    EXPECT_NE(std::find(full.begin(), full.end(), entry), full.end())
        << entry.items.ToString();
  }
}

TEST_F(FailpointTest, BruteForceCancelsAtWorldRange) {
  const UncertainDatabase db = MakePaperExampleDb();
  const std::vector<FcpGroundTruth> full = BruteForceAllFcp(db, 2);
  ASSERT_FALSE(full.empty());

  CancelToken token;
  RunController controller(RunBudget{}, &token);
  ExecutionContext exec;
  exec.runtime = &controller;
  failpoint::Arm("brute/range", [&token] { token.RequestCancel(); });
  // World sums missing ranges would be wrong, not partial: a stopped
  // brute-force run discards everything.
  EXPECT_TRUE(BruteForceAllFcp(db, 2, exec).empty());
  EXPECT_EQ(controller.outcome(), Outcome::kCancelled);

  CancelToken token2;
  RunController controller2(RunBudget{}, &token2);
  ExecutionContext exec2;
  exec2.runtime = &controller2;
  failpoint::Arm("brute/range", [&token2] { token2.RequestCancel(); });
  const WorldProbabilities zeroed = BruteForceItemsetProbabilities(
      db, Itemset{1}, 2, exec2);
  EXPECT_EQ(zeroed.pr_f, 0.0);
  EXPECT_EQ(zeroed.pr_c, 0.0);
  EXPECT_EQ(zeroed.pr_fc, 0.0);
  EXPECT_EQ(controller2.outcome(), Outcome::kCancelled);
}

TEST_F(FailpointTest, EverySiteIsReachable) {
  // Counting probes only — the runs complete, but each documented site
  // must actually be compiled into its miner.
  const auto expect_reached = [](const char* site, const auto& db,
                                 const MiningRequest& request) {
    SCOPED_TRACE(site);
    failpoint::Arm(site);
    const MiningResult result = Mine(db, request);
    EXPECT_EQ(result.outcome(), Outcome::kComplete);
    EXPECT_GE(failpoint::HitCount(site), 1u);
    failpoint::Disarm(site);
  };
  const UncertainDatabase db = MakePaperExampleDb();
  const std::vector<std::pair<const char*, Algorithm>> sites = {
      {"mpfci/node", Algorithm::kMpfci},
      {"bfs/level", Algorithm::kMpfciBfs},
      {"naive/check", Algorithm::kNaive},
      {"topk/node", Algorithm::kTopK},
      {"pfi/node", Algorithm::kPfi},
      {"esup/node", Algorithm::kExpectedSupport},
      {"esup-fp/node", Algorithm::kExpectedSupportFpGrowth},
  };
  for (const auto& [site, algorithm] : sites) {
    expect_reached(site, db, PaperRequest(algorithm));
  }
  expect_reached("sampler/batch", db, SampledRequest(Algorithm::kMpfci));

  const ItemUncertainDatabase item_db = ItemDb();
  expect_reached("item-esup/node", item_db,
                 PaperRequest(Algorithm::kItemExpectedSupport));
  expect_reached("item-pfi/node", item_db,
                 PaperRequest(Algorithm::kItemPfi));
}

}  // namespace
}  // namespace pfci
