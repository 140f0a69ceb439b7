#include "src/core/search/pfi_enumeration.h"

#include <algorithm>
#include <utility>

#include "src/util/failpoint.h"

namespace pfci {

namespace {

class PfiEnumeration {
 public:
  PfiEnumeration(const VerticalIndex& index, const CandidateOracle& oracle,
                 double pft, MiningStats* stats, RunController& rt)
      : index_(&index), oracle_(&oracle), pft_(pft), stats_(stats), rt_(rt) {}

  std::vector<PfiEntry> Run() {
    // Sequential enumeration: one logical work unit owns the whole
    // budget.
    unit_ = rt_.UnitBudget(0, 1);

    if (!rt_.StopRequested()) {
      for (Item item : index_->occurring_items()) {
        TidSet tids = index_->TidsOfItem(item);
        QualifyRequest req;
        req.threshold = pft_;
        const double pr_f = oracle_->Qualify(tids, req, stats_);
        if (pr_f > pft_) {
          candidates_.push_back(item);
          Emit(Itemset{item}, std::move(tids), pr_f);
        }
      }
    }
    // The singleton pass above seeded `result_`; extend depth-first.
    const std::size_t num_singletons = result_.size();
    for (std::size_t s = 0; s < num_singletons && !Stopped(); ++s) {
      // Copy: Dfs appends to result_ and may reallocate.
      const PfiEntry seed = result_[s];
      Dfs(seed.items, seed.tids, IndexOfCandidate(seed.items.LastItem()));
    }
    if (unit_.truncated) rt_.RecordTruncation(Outcome::kBudgetExhausted);
    std::sort(result_.begin(), result_.end());
    return std::move(result_);
  }

 private:
  /// Whether the run should wind down (budget cut or global stop).
  bool Stopped() const { return unit_.truncated || rt_.StopRequested(); }

  std::size_t IndexOfCandidate(Item item) const {
    return static_cast<std::size_t>(
        std::lower_bound(candidates_.begin(), candidates_.end(), item) -
        candidates_.begin());
  }

  void Emit(Itemset items, TidSet tids, double pr_f) {
    PfiEntry entry;
    entry.items = std::move(items);
    entry.pr_f = pr_f;
    entry.tids = std::move(tids);
    result_.push_back(std::move(entry));
  }

  void Dfs(const Itemset& x, const TidSet& tids, std::size_t candidate_pos) {
    // Node-expansion checkpoint: PFIs emit before recursing, so cutting
    // here leaves a verified prefix in `result_`.
    PFCI_FAILPOINT("pfi/node");
    if (rt_.Checkpoint()) return;
    if (!unit_.TakeNode()) return;
    if (stats_ != nullptr) ++stats_->nodes_visited;
    for (std::size_t c = candidate_pos + 1; c < candidates_.size(); ++c) {
      if (Stopped()) return;
      const Item item = candidates_[c];
      TidSet child_tids = Intersect(tids, index_->TidsOfItem(item));
      if (stats_ != nullptr) ++stats_->intersections;
      QualifyRequest req;
      req.threshold = pft_;
      const double pr_f = oracle_->Qualify(child_tids, req, stats_);
      if (pr_f <= pft_) continue;
      const Itemset child = x.WithItem(item);
      Emit(child, child_tids, pr_f);
      Dfs(child, child_tids, c);
    }
  }

  const VerticalIndex* index_;
  const CandidateOracle* oracle_;
  double pft_;
  MiningStats* stats_;
  RunController& rt_;
  WorkUnitBudget unit_;
  std::vector<Item> candidates_;
  std::vector<PfiEntry> result_;
};

}  // namespace

std::vector<PfiEntry> EnumeratePfis(const VerticalIndex& index,
                                    const CandidateOracle& oracle, double pft,
                                    MiningStats* stats, RunController& rt) {
  PfiEnumeration search(index, oracle, pft, stats, rt);
  return search.Run();
}

}  // namespace pfci
