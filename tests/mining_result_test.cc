// Unit tests for the result/statistics value types.
#include "src/core/mining_result.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

namespace pfci {
namespace {

TEST(FcpMethodNames, AllNamed) {
  EXPECT_STREQ(FcpMethodName(FcpMethod::kUndecided), "undecided");
  EXPECT_STREQ(FcpMethodName(FcpMethod::kZeroByCount), "zero-by-count");
  EXPECT_STREQ(FcpMethodName(FcpMethod::kBoundsDecided), "bounds");
  EXPECT_STREQ(FcpMethodName(FcpMethod::kExact), "exact");
  EXPECT_STREQ(FcpMethodName(FcpMethod::kSampled), "sampled");
}

TEST(MiningResult, SortAndFind) {
  MiningResult result;
  PfciEntry b;
  b.items = Itemset{1, 2};
  b.fcp = 0.9;
  PfciEntry a;
  a.items = Itemset{0};
  a.fcp = 0.85;
  result.itemsets = {b, a};
  result.Sort();
  EXPECT_EQ(result.itemsets[0].items, (Itemset{0}));
  EXPECT_EQ(result.itemsets[1].items, (Itemset{1, 2}));

  const PfciEntry* found = result.Find(Itemset{1, 2});
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->fcp, 0.9);
  EXPECT_EQ(result.Find(Itemset{7}), nullptr);
}

TEST(MiningResult, ToStringRendersEntries) {
  MiningResult result;
  PfciEntry entry;
  entry.items = Itemset{0, 1};
  entry.fcp = 0.875;
  entry.pr_f = 0.97;
  entry.method = FcpMethod::kExact;
  result.itemsets.push_back(entry);
  const std::string text = result.ToString(/*letters=*/true);
  EXPECT_NE(text.find("{a b}"), std::string::npos);
  EXPECT_NE(text.find("0.875"), std::string::npos);
  EXPECT_NE(text.find("exact"), std::string::npos);
}

TEST(MiningStats, ToStringContainsEveryCounter) {
  MiningStats stats;
  stats.nodes_visited = 11;
  stats.pruned_by_chernoff = 22;
  stats.total_samples = 33;
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("nodes=11"), std::string::npos);
  EXPECT_NE(text.find("ch_pruned=22"), std::string::npos);
  EXPECT_NE(text.find("samples=33"), std::string::npos);
}

/// Every std::uint64_t field of MiningStats with its JSON key and whether
/// MergeCounters sums it (the 12 per-work counters).
struct CounterField {
  std::uint64_t MiningStats::*member;
  const char* json;
  bool merged;
};

constexpr CounterField kCounterFields[] = {
    {&MiningStats::nodes_visited, "nodes_visited", true},
    {&MiningStats::pruned_by_chernoff, "pruned_by_chernoff", true},
    {&MiningStats::pruned_by_frequency, "pruned_by_frequency", true},
    {&MiningStats::pruned_by_superset, "pruned_by_superset", true},
    {&MiningStats::pruned_by_subset, "pruned_by_subset", true},
    {&MiningStats::decided_by_bounds, "decided_by_bounds", true},
    {&MiningStats::zero_by_count, "zero_by_count", true},
    {&MiningStats::exact_fcp_computations, "exact_fcp_computations", true},
    {&MiningStats::sampled_fcp_computations, "sampled_fcp_computations",
     true},
    {&MiningStats::total_samples, "total_samples", true},
    {&MiningStats::dp_runs, "dp_runs", false},
    {&MiningStats::degraded_fcp_evals, "degraded_fcp_evals", true},
    {&MiningStats::intersections, "intersections", true},
    {&MiningStats::cache_hits, "cache_hits", false},
    {&MiningStats::cache_misses, "cache_misses", false},
    {&MiningStats::dp_reused, "dp_reused", false},
    {&MiningStats::cache_bytes, "cache_bytes", false},
    {&MiningStats::snapshot_bytes, "snapshot_bytes", false},
    {&MiningStats::batch_size, "batch_size", false},
    {&MiningStats::batch_groups, "batch_groups", false},
    {&MiningStats::shared_dp_hits, "shared_dp_hits", false},
    {&MiningStats::queued_micros, "queued_micros", false},
};

std::size_t CountOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

TEST(MiningStats, MergeCountersAddsExactlyThePerWorkCounters) {
  MiningStats part;
  for (std::size_t i = 0; i < std::size(kCounterFields); ++i) {
    part.*kCounterFields[i].member = 100 + i;
  }
  part.seconds = 1.5;
  part.candidate_seconds = 2.5;
  part.search_seconds = 3.5;
  part.merge_seconds = 4.5;
  part.outcome = Outcome::kCancelled;
  part.truncated = true;
  part.resumed = true;

  MiningStats total;
  for (const CounterField& field : kCounterFields) total.*field.member = 1;
  total.MergeCounters(part);

  std::size_t merged = 0;
  for (std::size_t i = 0; i < std::size(kCounterFields); ++i) {
    const CounterField& field = kCounterFields[i];
    if (field.merged) ++merged;
    EXPECT_EQ(total.*field.member, field.merged ? 101 + i : 1) << field.json;
  }
  EXPECT_EQ(merged, 12u);
  EXPECT_EQ(total.seconds, 0.0);
  EXPECT_EQ(total.candidate_seconds, 0.0);
  EXPECT_EQ(total.search_seconds, 0.0);
  EXPECT_EQ(total.merge_seconds, 0.0);
  EXPECT_EQ(total.outcome, Outcome::kComplete);
  EXPECT_FALSE(total.truncated);
  EXPECT_FALSE(total.resumed);
}

TEST(MiningStats, ToJsonNamesEveryCounterOnce) {
  MiningStats stats;
  for (std::size_t i = 0; i < std::size(kCounterFields); ++i) {
    stats.*kCounterFields[i].member = 100 + i;
  }
  const std::string json = stats.ToJson();
  for (std::size_t i = 0; i < std::size(kCounterFields); ++i) {
    const std::string key = std::string("\"") + kCounterFields[i].json + "\":";
    EXPECT_EQ(CountOccurrences(json, key), 1u) << key << " in " << json;
    EXPECT_NE(json.find(key + std::to_string(100 + i)), std::string::npos)
        << key << " in " << json;
  }
  // schema, the counters, outcome/truncated/resumed and four seconds.
  EXPECT_EQ(CountOccurrences(json, "\":"),
            1 + std::size(kCounterFields) + 3 + 4)
      << json;
}

TEST(MiningStats, ToStringTextIsStable) {
  // The text line is a wire format too (logs and the CLI's stats line).
  MiningStats stats;
  for (std::size_t i = 0; i < std::size(kCounterFields); ++i) {
    stats.*kCounterFields[i].member = 100 + i;
  }
  stats.outcome = Outcome::kBudgetExhausted;
  stats.resumed = true;
  stats.seconds = 0.25;
  EXPECT_EQ(stats.ToString(),
            "nodes=100 ch_pruned=101 freq_pruned=102 super_pruned=103 "
            "sub_pruned=104 bounds_decided=105 zero_by_count=106 "
            "exact_fcp=107 sampled_fcp=108 samples=109 dp_runs=110 "
            "intersections=112 degraded_fcp=111 cache_hits=113 "
            "cache_misses=114 dp_reused=115 outcome=budget_exhausted "
            "resumed=1 snapshot_bytes=117 batch=118/119 shared_dp_hits=120 "
            "queued_micros=121 time=0.25s");
}

}  // namespace
}  // namespace pfci
