// API contract tests: invalid-usage CHECKs fire (death tests), inert
// inputs are truly inert, invalid requests come back from Mine() as
// data, and Mine()'s flat-miner arms report exactly what independent
// references (possible-world PrF, direct expected supports) compute.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/brute_force.h"
#include "src/core/mine.h"
#include "src/core/request_io.h"
#include "src/core/stream_miner.h"
#include "src/data/item_uncertain_database.h"
#include "src/data/request_wire.h"
#include "src/data/uncertain_database.h"
#include "src/data/world_enumerator.h"
#include "src/prob/karp_luby.h"
#include "src/serve/mining_session.h"

namespace pfci {
namespace {

UncertainDatabase MakeSmallDb();

using ApiContractDeathTest = ::testing::Test;

TEST(ApiContractDeathTest, RejectsInvalidProbabilities) {
  UncertainDatabase db;
  EXPECT_DEATH(db.Add(Itemset{0}, 0.0), "CHECK");
  EXPECT_DEATH(db.Add(Itemset{0}, -0.1), "CHECK");
  EXPECT_DEATH(db.Add(Itemset{0}, 1.5), "CHECK");
}

TEST(ApiContract, StreamDegenerateConfigsSurfaceAsData) {
  // Streaming configs are runtime inputs, not programmer errors: a
  // window smaller than min_sup constructs fine and simply mines empty
  // windows (support can never reach min_sup), and window_size == 0
  // surfaces as kInvalidRequest from MineWindow, never an abort.
  MiningParams params;
  params.min_sup = 10;
  StreamingPfciMiner narrow(params, /*window_size=*/5);
  narrow.Observe(Itemset{0}, 0.5);
  MiningRequest request;
  request.params = params;
  EXPECT_EQ(narrow.MineWindow(request).outcome(), Outcome::kComplete);

  params.min_sup = 1;
  StreamingPfciMiner zero(params, /*window_size=*/0);
  request.params = params;
  EXPECT_EQ(zero.MineWindow(request).outcome(), Outcome::kInvalidRequest);
}

TEST(ApiContractDeathTest, WorldEnumerationSizeGuard) {
  UncertainDatabase db;
  for (int i = 0; i < 30; ++i) db.Add(Itemset{0}, 0.5);
  EXPECT_DEATH(EnumerateWorlds(db, [](const PossibleWorld&, double) {}),
               "CHECK");
}

TEST(ApiContractDeathTest, KarpLubyParameterGuards) {
  EXPECT_DEATH(KarpLubyRequiredSamples(1, 0.0, 0.1), "CHECK");
  EXPECT_DEATH(KarpLubyRequiredSamples(1, 0.1, 0.0), "CHECK");
  EXPECT_DEATH(KarpLubyRequiredSamples(1, 0.1, 1.0), "CHECK");
}

TEST(ApiContract, ValidateParamsReportsTheOffendingField) {
  MiningParams params;
  EXPECT_EQ(ValidateParams(params), "");
  params.min_sup = 0;
  EXPECT_NE(ValidateParams(params).find("min_sup"), std::string::npos);
  params.min_sup = 1;
  params.pfct = 1.0;
  EXPECT_NE(ValidateParams(params).find("pfct"), std::string::npos);
  params.pfct = 0.8;
  params.epsilon = 0.0;
  EXPECT_NE(ValidateParams(params).find("epsilon"), std::string::npos);
  params.epsilon = 0.1;
  params.delta = 1.0;
  EXPECT_NE(ValidateParams(params).find("delta"), std::string::npos);
}

TEST(ApiContract, ValidateRequestCoversRequestFields) {
  MiningRequest request;
  EXPECT_EQ(ValidateRequest(request), "");
  request.algorithm = Algorithm::kTopK;
  request.top_k = 0;
  EXPECT_NE(ValidateRequest(request).find("top_k"), std::string::npos);
  request.top_k = 10;
  request.min_esup = -1.0;
  EXPECT_NE(ValidateRequest(request).find("min_esup"), std::string::npos);
  request.min_esup = 0.0;
  request.params.min_sup = 0;
  EXPECT_NE(ValidateRequest(request).find("min_sup"), std::string::npos);
  request.params.min_sup = 2;
  request.budget.deadline_seconds = -1.0;
  EXPECT_NE(ValidateRequest(request).find("deadline_seconds"),
            std::string::npos);
  request.budget.deadline_seconds = 0.0;
  request.budget.degrade_fraction = 0.0;
  EXPECT_NE(ValidateRequest(request).find("degrade_fraction"),
            std::string::npos);
}

// NaN fails every ordered comparison, so a check spelled `x < 0` lets it
// through; each request field must still be rejected by name.
TEST(ApiContract, ValidateRequestRejectsNanMinEsup) {
  MiningRequest request;
  request.algorithm = Algorithm::kExpectedSupport;
  request.min_esup = std::nan("");
  EXPECT_NE(ValidateRequest(request).find("min_esup"), std::string::npos);
}

TEST(ApiContract, ValidateRequestRejectsNanDeadline) {
  MiningRequest request;
  request.budget.deadline_seconds = std::nan("");
  EXPECT_NE(ValidateRequest(request).find("deadline_seconds"),
            std::string::npos);
}

TEST(ApiContract, ValidateRequestRejectsNanDegradeFraction) {
  MiningRequest request;
  request.budget.degrade_fraction = std::nan("");
  EXPECT_NE(ValidateRequest(request).find("degrade_fraction"),
            std::string::npos);
}

TEST(ApiContract, NanMinEsupFromAWireFileIsAnInvalidRequest) {
  // The wire parser reads `nan` as a double; the request must then fail
  // validation instead of running mpfci with a stray min_esup.
  const std::string path = ::testing::TempDir() + "pfci_nan_" +
                           std::to_string(::getpid()) + ".request";
  {
    std::ofstream out(path);
    out << "algorithm=mpfci\nmin_sup=2\nmin_esup=nan\n";
  }
  MiningRequest request;
  std::string error;
  const bool loaded = LoadRequestFile(path, &request, &error);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded) << error;
  const MiningResult result = Mine(MakeSmallDb(), request);
  EXPECT_EQ(result.outcome(), Outcome::kInvalidRequest);
  EXPECT_NE(result.status_message.find("min_esup"), std::string::npos)
      << result.status_message;
}

TEST(ApiContract, MineReportsInvalidRequestsWithoutAborting) {
  // The Mine() API boundary reports bad requests as data: an empty
  // result with kInvalidRequest and the validation message, never an
  // abort.
  UncertainDatabase db;
  db.Add(Itemset{0}, 0.5);
  MiningRequest request;
  request.params.pfct = 1.5;
  const MiningResult bad_pfct = Mine(db, request);
  EXPECT_FALSE(bad_pfct.ok());
  EXPECT_EQ(bad_pfct.outcome(), Outcome::kInvalidRequest);
  EXPECT_TRUE(bad_pfct.itemsets.empty());
  EXPECT_NE(bad_pfct.status_message.find("pfct"), std::string::npos)
      << bad_pfct.status_message;

  request.params.pfct = 0.8;
  request.algorithm = Algorithm::kTopK;
  request.top_k = 0;
  const MiningResult bad_top_k = Mine(db, request);
  EXPECT_EQ(bad_top_k.outcome(), Outcome::kInvalidRequest);
  EXPECT_TRUE(bad_top_k.itemsets.empty());
  EXPECT_NE(bad_top_k.status_message.find("top_k"), std::string::npos)
      << bad_top_k.status_message;
}

TEST(ApiContract, AlgorithmNamesAreStable) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kMpfci), "mpfci");
  EXPECT_STREQ(AlgorithmName(Algorithm::kMpfciBfs), "bfs");
  EXPECT_STREQ(AlgorithmName(Algorithm::kNaive), "naive");
  EXPECT_STREQ(AlgorithmName(Algorithm::kTopK), "topk");
  EXPECT_STREQ(AlgorithmName(Algorithm::kPfi), "pfi");
  EXPECT_STREQ(AlgorithmName(Algorithm::kExpectedSupport), "esup");
  EXPECT_STREQ(AlgorithmName(Algorithm::kExpectedSupportFpGrowth),
               "esup-fp");
  EXPECT_STREQ(AlgorithmName(Algorithm::kBruteForce), "brute");
  EXPECT_STREQ(AlgorithmName(Algorithm::kItemExpectedSupport), "item-esup");
  EXPECT_STREQ(AlgorithmName(Algorithm::kItemPfi), "item-pfi");
}

TEST(ApiContract, ParseAlgorithmRoundTripsEveryName) {
  for (const Algorithm algorithm : AllAlgorithms()) {
    Algorithm parsed;
    ASSERT_TRUE(ParseAlgorithm(AlgorithmName(algorithm), &parsed))
        << AlgorithmName(algorithm);
    EXPECT_EQ(parsed, algorithm);
  }
  Algorithm unused;
  EXPECT_FALSE(ParseAlgorithm("mpfcix", &unused));
  EXPECT_FALSE(ParseAlgorithm("", &unused));
  EXPECT_FALSE(ParseAlgorithm("MPFCI", &unused));  // Case-sensitive.
}

TEST(ApiContract, CrossFieldValidationNamesTheOffendingField) {
  // top_k only applies to the top-k algorithm.
  MiningRequest request;
  request.top_k = 5;
  EXPECT_NE(ValidateRequest(request).find("top_k"), std::string::npos);

  // min_esup > 0 only applies to expected-support algorithms.
  request = MiningRequest{};
  request.min_esup = 2.0;
  EXPECT_NE(ValidateRequest(request).find("min_esup"), std::string::npos);
  request.algorithm = Algorithm::kExpectedSupport;
  EXPECT_EQ(ValidateRequest(request), "");
}

TEST(ApiContract, BruteForceGuardsDatabaseSizeAsData) {
  UncertainDatabase db;
  for (int i = 0; i < 25; ++i) db.Add(Itemset{0, 1}, 0.5);
  MiningRequest request;
  request.algorithm = Algorithm::kBruteForce;
  request.params.min_sup = 2;
  const MiningResult result = Mine(db, request);
  EXPECT_EQ(result.outcome(), Outcome::kInvalidRequest);
  EXPECT_NE(result.status_message.find("brute"), std::string::npos)
      << result.status_message;
}

TEST(ApiContract, OverloadsRejectMismatchedAlgorithmLevels) {
  // Item-level algorithms are served only by the item-level overload.
  const UncertainDatabase tuple_db = MakeSmallDb();
  MiningRequest request;
  request.params.min_sup = 1;
  request.algorithm = Algorithm::kItemPfi;
  EXPECT_EQ(Mine(tuple_db, request).outcome(), Outcome::kInvalidRequest);

  ItemUncertainDatabase item_db;
  item_db.Add({{0, 0.9}, {1, 0.8}});
  item_db.Add({{0, 0.7}, {1, 0.6}});
  request.algorithm = Algorithm::kMpfci;
  EXPECT_EQ(Mine(item_db, request).outcome(), Outcome::kInvalidRequest);
  request.algorithm = Algorithm::kItemPfi;
  request.params.pfct = 0.1;
  EXPECT_EQ(Mine(item_db, request).outcome(), Outcome::kComplete);
}

TEST(ApiContract, FlatMinerAdapterPinsEntryConversion) {
  // Mine() serves the flat miners through one adapter; each algorithm
  // only supplies its entry conversion, pinned here field by field
  // against the internal implementation it wraps.
  const UncertainDatabase db = MakeSmallDb();
  MiningRequest request;
  request.params.min_sup = 2;
  request.params.pfct = 0.1;

  // The possible-world oracle reports the exact PrFC as an exact point.
  request.algorithm = Algorithm::kBruteForce;
  const MiningResult brute = Mine(db, request);
  const std::vector<FcpGroundTruth> truth = internal::BruteForceMinePfci(
      db, request.params.min_sup, request.params.pfct);
  ASSERT_FALSE(truth.empty());
  ASSERT_EQ(brute.itemsets.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(brute.itemsets[i].items, truth[i].items);
    EXPECT_EQ(brute.itemsets[i].fcp, truth[i].fcp);
    EXPECT_EQ(brute.itemsets[i].fcp_lower, truth[i].fcp);
    EXPECT_EQ(brute.itemsets[i].fcp_upper, truth[i].fcp);
    EXPECT_EQ(brute.itemsets[i].pr_f, 0.0);
    EXPECT_EQ(brute.itemsets[i].method, FcpMethod::kExact);
  }

  // Frequentness-only miners carry their measure in pr_f and fcp_upper,
  // through the one FrequentnessEntry.
  request.algorithm = Algorithm::kExpectedSupportFpGrowth;
  request.min_esup = 1.5;
  const MiningResult fp = Mine(db, request);
  ASSERT_FALSE(fp.itemsets.empty());
  for (const PfciEntry& entry : fp.itemsets) {
    EXPECT_NEAR(entry.pr_f, db.ExpectedSupport(entry.items), 1e-12);
    EXPECT_EQ(entry.fcp, 0.0);
    EXPECT_EQ(entry.fcp_lower, 0.0);
    EXPECT_EQ(entry.fcp_upper, entry.pr_f);
    EXPECT_EQ(entry.method, FcpMethod::kUndecided);
  }
}

/// Every non-empty itemset over items 0..num_items-1, canonically sorted.
std::vector<Itemset> AllItemsets(Item num_items) {
  std::vector<Itemset> all;
  for (std::uint32_t mask = 1; mask < (1u << num_items); ++mask) {
    std::vector<Item> items;
    for (Item i = 0; i < num_items; ++i) {
      if ((mask >> i & 1u) != 0) items.push_back(i);
    }
    all.push_back(Itemset(std::move(items)));
  }
  std::sort(all.begin(), all.end());
  return all;
}

/// A fixed 6-transaction database exercising all miners cheaply.
UncertainDatabase MakeSmallDb() {
  UncertainDatabase db;
  db.Add(Itemset{0, 1, 2, 3}, 0.9);
  db.Add(Itemset{0, 1, 2}, 0.6);
  db.Add(Itemset{0, 1, 2}, 0.7);
  db.Add(Itemset{0, 1, 2, 3}, 0.9);
  db.Add(Itemset{0, 1}, 0.4);
  db.Add(Itemset{0}, 0.4);
  return db;
}

TEST(ApiContract, MinePfiAlgorithmReportsFrequentProbabilities) {
  // kPfi returns exactly the itemsets whose brute-force (possible-world)
  // PrF exceeds pfct, each with that PrF.
  const UncertainDatabase db = MakeSmallDb();
  MiningRequest request;
  request.algorithm = Algorithm::kPfi;
  request.params.min_sup = 2;
  request.params.pfct = 0.1;
  const MiningResult result = Mine(db, request);
  std::vector<Itemset> expected;
  std::vector<double> expected_pr_f;
  for (const Itemset& x : AllItemsets(4)) {
    const double pr_f =
        BruteForceItemsetProbabilities(db, x, request.params.min_sup).pr_f;
    if (pr_f > request.params.pfct) {
      expected.push_back(x);
      expected_pr_f.push_back(pr_f);
    }
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(result.itemsets.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.itemsets[i].items, expected[i]);
    EXPECT_NEAR(result.itemsets[i].pr_f, expected_pr_f[i], 1e-12);
    EXPECT_EQ(result.itemsets[i].fcp, 0.0);
  }
}

TEST(ApiContract, MineExpectedSupportAlgorithmReportsExpectedSupports) {
  // kExpectedSupport returns exactly the itemsets whose expected support
  // reaches min_esup, each with that expected support, and agrees with
  // the FP-growth arm.
  const UncertainDatabase db = MakeSmallDb();
  MiningRequest request;
  request.algorithm = Algorithm::kExpectedSupport;
  request.params.min_sup = 2;
  request.min_esup = 1.5;
  const MiningResult result = Mine(db, request);
  std::vector<Itemset> expected;
  for (const Itemset& x : AllItemsets(4)) {
    if (db.ExpectedSupport(x) >= request.min_esup) expected.push_back(x);
  }
  ASSERT_FALSE(expected.empty());
  request.algorithm = Algorithm::kExpectedSupportFpGrowth;
  const MiningResult fp = Mine(db, request);
  ASSERT_EQ(result.itemsets.size(), expected.size());
  ASSERT_EQ(fp.itemsets.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.itemsets[i].items, expected[i]);
    EXPECT_NEAR(result.itemsets[i].pr_f, db.ExpectedSupport(expected[i]),
                1e-12);
    EXPECT_EQ(fp.itemsets[i].items, expected[i]);
    EXPECT_NEAR(fp.itemsets[i].pr_f, result.itemsets[i].pr_f, 1e-12);
  }
}

TEST(ApiContract, ProgressCallbackFiresAndCountsItemsets) {
  const UncertainDatabase db = MakeSmallDb();
  MiningRequest request;
  request.params.min_sup = 2;
  request.params.pfct = 0.1;
  request.progress_interval = 1;  // Fire as often as allowed.
  MiningProgress last;
  std::size_t calls = 0;
  request.progress = [&](const MiningProgress& progress) {
    last = progress;
    ++calls;
  };
  const MiningResult result = Mine(db, request);
  EXPECT_GE(calls, 1u);  // At least the final flush.
  EXPECT_EQ(last.itemsets_found, result.itemsets.size());
  EXPECT_EQ(last.nodes_visited, result.stats.nodes_visited);
}

TEST(ApiContract, EmptyTransactionsAreInert) {
  // An empty-itemset tuple (possible via the text loader) contains no
  // item, so it cannot affect any itemset's support or closedness.
  UncertainDatabase with_empty;
  with_empty.Add(Itemset{}, 0.5);
  with_empty.Add(Itemset{0, 1}, 0.8);
  with_empty.Add(Itemset{0, 1}, 0.7);
  with_empty.Add(Itemset{}, 0.9);

  UncertainDatabase without_empty;
  without_empty.Add(Itemset{0, 1}, 0.8);
  without_empty.Add(Itemset{0, 1}, 0.7);

  MiningRequest request;
  request.algorithm = Algorithm::kMpfci;
  request.params.min_sup = 2;
  request.params.pfct = 0.5;
  const MiningResult a = Mine(with_empty, request);
  const MiningResult b = Mine(without_empty, request);
  ASSERT_EQ(a.itemsets.size(), b.itemsets.size());
  for (std::size_t i = 0; i < a.itemsets.size(); ++i) {
    EXPECT_EQ(a.itemsets[i].items, b.itemsets[i].items);
    EXPECT_NEAR(a.itemsets[i].fcp, b.itemsets[i].fcp, 1e-12);
  }
}

TEST(ApiContract, ResultsIndependentOfTransactionOrder) {
  // Permuting the transactions permutes tids but cannot change any
  // probability.
  UncertainDatabase forward;
  forward.Add(Itemset{0, 1, 2}, 0.9);
  forward.Add(Itemset{0, 1}, 0.4);
  forward.Add(Itemset{1, 2}, 0.7);
  forward.Add(Itemset{0, 2}, 0.6);
  UncertainDatabase backward;
  backward.Add(Itemset{0, 2}, 0.6);
  backward.Add(Itemset{1, 2}, 0.7);
  backward.Add(Itemset{0, 1}, 0.4);
  backward.Add(Itemset{0, 1, 2}, 0.9);

  MiningRequest request;
  request.algorithm = Algorithm::kMpfci;
  request.params.min_sup = 2;
  request.params.pfct = 0.1;
  request.params.exact_event_limit = 25;
  const MiningResult a = Mine(forward, request);
  const MiningResult b = Mine(backward, request);
  ASSERT_EQ(a.itemsets.size(), b.itemsets.size());
  for (std::size_t i = 0; i < a.itemsets.size(); ++i) {
    EXPECT_EQ(a.itemsets[i].items, b.itemsets[i].items);
    EXPECT_NEAR(a.itemsets[i].fcp, b.itemsets[i].fcp, 1e-12);
  }
}

/// ---- The asynchronous surface keeps the error-as-data contract ----

TEST(ApiContract, DefaultConstructedRunHandleIsInvalid) {
  RunHandle handle;
  EXPECT_FALSE(handle.valid());
}

TEST(ApiContract, SubmitAndMineBatchReportErrorsAsDataNeverAborting) {
  // The async and batch entry points answer every failure through the
  // result (kInvalidRequest with the same "invalid MiningRequest: "
  // prefix Mine() stamps), never via CHECK or exceptions: a bad request
  // inside a batch must not take down its neighbours.
  const UncertainDatabase db = MakeSmallDb();
  MiningSession session = MiningSession::Open(db);

  MiningRequest bad;
  bad.params.pfct = 1.5;
  RunHandle handle = session.Submit(bad);
  ASSERT_TRUE(handle.valid());
  const MiningResult& async_result = handle.Wait();
  EXPECT_EQ(async_result.outcome(), Outcome::kInvalidRequest);
  EXPECT_NE(async_result.status_message.find("invalid MiningRequest"),
            std::string::npos);

  MiningRequest good;
  good.algorithm = Algorithm::kMpfci;
  good.params.min_sup = 2;
  good.params.pfct = 0.3;
  const std::vector<MiningRequest> requests = {good, bad};
  const std::vector<MiningResult> batch = session.MineBatch(requests);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].outcome(), Outcome::kComplete)
      << batch[0].status_message;
  EXPECT_EQ(batch[1].outcome(), Outcome::kInvalidRequest);
  EXPECT_NE(batch[1].status_message.find("invalid MiningRequest"),
            std::string::npos);
  // Batch counters are part of the stats contract (schema v6): stamped
  // on every member, the invalid one included.
  for (const MiningResult& result : batch) {
    EXPECT_EQ(result.stats.batch_size, 2u);
    EXPECT_EQ(result.stats.batch_groups, 1u);
  }
}

TEST(ApiContract, MineBatchAgreesWithMineForEveryMember) {
  const UncertainDatabase db = MakeSmallDb();
  std::vector<MiningRequest> requests;
  for (const Algorithm algorithm :
       {Algorithm::kMpfci, Algorithm::kPfi, Algorithm::kNaive}) {
    MiningRequest request;
    request.algorithm = algorithm;
    request.params.min_sup = 2;
    request.params.pfct = 0.3;
    requests.push_back(request);
  }
  MiningSession session = MiningSession::Open(db);
  const std::vector<MiningResult> batch = session.MineBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(AlgorithmName(requests[i].algorithm));
    const MiningResult standalone = Mine(db, requests[i]);
    ASSERT_EQ(batch[i].outcome(), standalone.outcome());
    ASSERT_EQ(batch[i].itemsets.size(), standalone.itemsets.size());
    for (std::size_t j = 0; j < batch[i].itemsets.size(); ++j) {
      EXPECT_EQ(batch[i].itemsets[j].items, standalone.itemsets[j].items);
      EXPECT_EQ(batch[i].itemsets[j].fcp, standalone.itemsets[j].fcp);
      EXPECT_EQ(batch[i].itemsets[j].pr_f, standalone.itemsets[j].pr_f);
    }
  }
}

/// ---- The request wire format round-trips the API surface ----

TEST(ApiContract, RequestWireRoundTripsEveryCoveredField) {
  MiningRequest request;
  request.algorithm = Algorithm::kTopK;
  request.top_k = 7;
  request.params.min_sup = 9;
  request.params.pfct = 0.35;
  request.params.epsilon = 0.05;
  request.params.delta = 0.01;
  request.params.exact_event_limit = 10;
  request.params.force_sampling = true;
  request.params.seed = 99;
  request.params.tidset_mode = TidSetMode::kDense;
  request.params.pruning.chernoff = false;
  request.execution.num_threads = 3;

  const std::string wire = FormatRequestFields(request);
  std::istringstream in(wire);
  std::vector<WireField> fields;
  std::string error;
  ASSERT_TRUE(ParseRequestWire(in, "<inline>", &fields, &error)) << error;
  MiningRequest replayed;
  ASSERT_TRUE(ApplyRequestFields(fields, "<inline>", &replayed, &error))
      << error;
  // Byte-stable: the replayed request serializes to the identical wire.
  EXPECT_EQ(FormatRequestFields(replayed), wire);
  EXPECT_EQ(replayed.algorithm, Algorithm::kTopK);
  EXPECT_EQ(replayed.top_k, 7u);
  EXPECT_EQ(replayed.params.min_sup, 9u);
  EXPECT_EQ(replayed.params.tidset_mode, TidSetMode::kDense);
  EXPECT_FALSE(replayed.params.pruning.chernoff);
  EXPECT_TRUE(replayed.params.force_sampling);
  EXPECT_EQ(replayed.execution.num_threads, 3u);
}

TEST(ApiContract, RequestWireRejectsUnknownKeysAndBadValuesWithLines) {
  std::istringstream unknown("algorithm=mpfci\nnot_a_key=1\n");
  std::vector<WireField> fields;
  std::string error;
  ASSERT_TRUE(ParseRequestWire(unknown, "<inline>", &fields, &error))
      << error;
  MiningRequest request;
  EXPECT_FALSE(ApplyRequestFields(fields, "<inline>", &request, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("not_a_key"), std::string::npos) << error;

  std::istringstream bad_value("min_sup=banana\n");
  fields.clear();
  ASSERT_TRUE(ParseRequestWire(bad_value, "<inline>", &fields, &error));
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(ApplyRequestField(fields[0], &request),
            WireFieldStatus::kBadValue);
  EXPECT_FALSE(ApplyRequestFields(fields, "<inline>", &request, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("banana"), std::string::npos) << error;
}

TEST(ApiContract, LoadRequestFileSkipsTheOracleCheckKey) {
  const std::string path = ::testing::TempDir() + "pfci_request_" +
                           std::to_string(::getpid()) + ".request";
  {
    std::ofstream out(path);
    // An oracle repro sidecar: comments, blank lines, and the harness's
    // `check` key on top of plain request fields.
    out << "# repro sidecar\n\nalgorithm=pfi\nmin_sup=4\ncheck=itemsets:3\n";
  }
  MiningRequest request;
  std::string error;
  ASSERT_TRUE(LoadRequestFile(path, &request, &error)) << error;
  EXPECT_EQ(request.algorithm, Algorithm::kPfi);
  EXPECT_EQ(request.params.min_sup, 4u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pfci
