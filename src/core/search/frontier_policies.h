// The four frontier policies of the unified search kernel (DESIGN.md
// §12): how each miner walks the set-enumeration space, with every
// qualification and certification decision delegated to the
// CandidateOracle and the FcpEngine.
#ifndef PFCI_CORE_SEARCH_FRONTIER_POLICIES_H_
#define PFCI_CORE_SEARCH_FRONTIER_POLICIES_H_

#include <cstddef>
#include <vector>

#include "src/core/fcp_sampler.h"
#include "src/core/search/pfi_enumeration.h"
#include "src/core/search/search_driver.h"

namespace pfci {

/// MPFCI (Fig. 1): depth-first set-enumeration, parallelized by handing
/// each first-level candidate's subtree to the work-stealing pool as one
/// task, and forking heavy subtrees below it (ClosedDfs, kForkMinCost).
/// Each subtree's RNG is seeded by SubtreeSeed(seed, root itemset) and
/// partials merge in candidate (and spawn) order, so the output is
/// bit-identical for any thread count.
class WorkStealingDfsFrontier : public FrontierPolicy {
 public:
  const char* phase_name() const override { return "dfs"; }
  void BuildCandidates(const SearchContext& ctx,
                       MiningResult& result) override;
  void Search(const SearchContext& ctx, MiningResult& result) override;
  void Merge(const SearchContext& ctx, MiningResult& result) override;

  /// Snapshot layout: frontier = first-level candidates (singleton
  /// itemsets weighted by PrF), done = per-unit subtree completion bits.
  void RestoreState(const SearchContext& ctx,
                    const RunSnapshot& snapshot) override;
  void SaveState(RunSnapshot& snapshot) const override;

 private:
  std::vector<Item> candidates_;
  std::vector<double> candidate_pr_f_;
  std::vector<MiningResult> subtree_;
  /// Units completed this session / restored as completed from a prior
  /// session. Distinct indices are written from distinct tasks, so the
  /// byte vectors are race-free without atomics.
  std::vector<std::uint8_t> done_;
  std::vector<std::uint8_t> restored_done_;
};

/// Apriori-shaped MPFCI: level-synchronous generation by prefix join,
/// with each level's certifications fanned out over the pool and
/// committed in level order. Per-entry RNG streams derive from the
/// entry's global position across the run.
class LevelSyncBfsFrontier : public FrontierPolicy {
 public:
  const char* phase_name() const override { return "bfs"; }
  void BuildCandidates(const SearchContext& ctx,
                       MiningResult& result) override;
  void Search(const SearchContext& ctx, MiningResult& result) override;
  void Merge(const SearchContext& ctx, MiningResult& result) override;

  /// Snapshot layout: frontier = the pending level (PrF-weighted; tid
  /// lists are recomputed on restore without counter bumps), cursor = the
  /// global entry counter at the level's start (the per-entry RNG streams
  /// derive from it).
  void RestoreState(const SearchContext& ctx,
                    const RunSnapshot& snapshot) override;
  void SaveState(RunSnapshot& snapshot) const override;

 private:
  /// One level entry: a probabilistic frequent itemset with its tid-list.
  struct LevelEntry {
    Itemset items;
    TidSet tids;
    double pr_f = 0.0;
  };

  std::vector<LevelEntry> level_;
  /// Global position of the current level's first entry across the whole
  /// run (including prior suspended sessions).
  std::uint64_t entry_counter_ = 0;
};

/// Top-k mining: the same closed-itemset DFS, but pruning against a
/// rising threshold — the k-th best FCP in hand — instead of a static
/// pfct. Sequential by construction (one shared RNG/threshold), ordered
/// by descending FCP with itemset tie-breaks.
class TopKFrontier : public FrontierPolicy {
 public:
  explicit TopKFrontier(std::size_t k) : k_(k) {}

  const char* phase_name() const override { return "dfs"; }
  void BuildCandidates(const SearchContext& ctx,
                       MiningResult& result) override;
  void Search(const SearchContext& ctx, MiningResult& result) override;
  void Merge(const SearchContext& ctx, MiningResult& result) override;

  /// Snapshot layout: frontier = candidate items, cursor = next candidate
  /// position, entries = the current pool, rng = the shared stream's
  /// state (the run is one logical unit; the state carries across
  /// sessions so later draws match an uninterrupted run exactly).
  void RestoreState(const SearchContext& ctx,
                    const RunSnapshot& snapshot) override;
  void SaveState(RunSnapshot& snapshot) const override;

 private:
  /// The output order: descending FCP, ties broken by ascending itemset.
  static bool RanksBefore(const PfciEntry& a, const PfciEntry& b);

  /// The active pruning threshold: the caller's floor while fewer than k
  /// results are held (strict, per Definition 3.8). Once the pool is
  /// full it sits one ULP *below* the k-th best FCP, so a candidate that
  /// exactly ties the k-boundary still reaches Offer() and the itemset
  /// tie-break there — the final top-k is then independent of the
  /// candidate enumeration order, matching the output sort.
  double Threshold(double floor) const;

  /// Index of the entry the next better candidate would evict: the one
  /// ranking last under the output order.
  std::size_t WeakestPos() const;
  void RecomputeWorst();
  void Offer(PfciEntry entry);

  std::size_t k_;
  std::vector<Item> candidates_;
  std::vector<PfciEntry> top_;
  double worst_in_top_ = 1.0;
  /// Resume state: first candidate not yet fully mined, and the shared
  /// RNG's state at the suspension point (Search writes the end-of-loop
  /// state back so SaveState can serialize it).
  std::size_t next_candidate_ = 0;
  bool have_rng_state_ = false;
  Rng::State rng_state_;
};

/// The Naive checker (Fig. 5): enumerate every probabilistic frequent
/// itemset (PrFC <= PrF, so the answer set is contained in the PFIs),
/// then check each one's frequent closed probability by sampling — no
/// tree, no closure pruning. The checks fan out over the pool with
/// per-check RNG streams derived from (seed, check index) and commit in
/// PFI order.
class FlatCheckFrontier : public FrontierPolicy {
 public:
  const char* phase_name() const override { return "sampling"; }
  void BuildCandidates(const SearchContext& ctx,
                       MiningResult& result) override;
  void Search(const SearchContext& ctx, MiningResult& result) override;
  void Merge(const SearchContext& ctx, MiningResult& result) override;

  /// Snapshot layout: frontier = the enumerated PFIs (PrF-weighted; tid
  /// lists recomputed on restore without counter bumps), done = per-check
  /// decision bits — a restored-done check is neither re-sampled nor
  /// re-counted in Merge (its entry and counters arrived via the base).
  void RestoreState(const SearchContext& ctx,
                    const RunSnapshot& snapshot) override;
  void SaveState(RunSnapshot& snapshot) const override;

 private:
  std::vector<PfiEntry> pfis_;
  std::vector<ApproxFcpResult> checks_;
  std::vector<std::uint8_t> undecided_;
  std::vector<std::uint8_t> restored_done_;
  /// Nodes consumed by this session's PFI enumeration (zero on resume),
  /// noted into the suspend-mode budget before the checks fan out.
  std::uint64_t enumerated_nodes_ = 0;
};

}  // namespace pfci

#endif  // PFCI_CORE_SEARCH_FRONTIER_POLICIES_H_
