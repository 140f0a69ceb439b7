#include "src/core/search/pfi_enumeration.h"

#include <algorithm>

#include "src/util/failpoint.h"

namespace pfci {

namespace {

class FrequentEnumeration {
 public:
  FrequentEnumeration(const VerticalIndex& index,
                      const FrequentnessMeasure& measure,
                      const char* failpoint, MiningStats* stats,
                      RunController& rt, const FrequentEmit& emit)
      : index_(&index),
        measure_(&measure),
        failpoint_(failpoint),
        stats_(stats),
        rt_(rt),
        emit_(&emit) {}

  void Run() {
    // Sequential enumeration: one logical work unit owns the whole
    // budget.
    unit_ = rt_.UnitBudget(0, 1);

    if (!rt_.StopRequested()) {
      for (Item item : index_->occurring_items()) {
        const TidSet& tids = index_->TidsOfItem(item);
        if (const std::optional<double> value = (*measure_)(tids, stats_)) {
          candidates_.push_back(item);
          (*emit_)(Itemset{item}, tids, *value);
        }
      }
    }
    // The admitted singletons seed the depth-first extension.
    for (std::size_t s = 0; s < candidates_.size() && !Stopped(); ++s) {
      const Item item = candidates_[s];
      Dfs(Itemset{item}, index_->TidsOfItem(item), s);
    }
    if (unit_.truncated) rt_.RecordTruncation(Outcome::kBudgetExhausted);
  }

 private:
  /// Whether the run should wind down (budget cut or global stop).
  bool Stopped() const { return unit_.truncated || rt_.StopRequested(); }

  void Dfs(const Itemset& x, const TidSet& tids, std::size_t candidate_pos) {
    // Node-expansion checkpoint: itemsets emit before recursing, so
    // cutting here leaves a verified prefix of the answer.
    PFCI_FAILPOINT(failpoint_);
    if (rt_.Checkpoint()) return;
    if (!unit_.TakeNode()) return;
    if (stats_ != nullptr) ++stats_->nodes_visited;
    for (std::size_t c = candidate_pos + 1; c < candidates_.size(); ++c) {
      if (Stopped()) return;
      const Item item = candidates_[c];
      const TidSet child_tids = Intersect(tids, index_->TidsOfItem(item));
      if (stats_ != nullptr) ++stats_->intersections;
      const std::optional<double> value = (*measure_)(child_tids, stats_);
      if (!value.has_value()) continue;
      const Itemset child = x.WithItem(item);
      (*emit_)(child, child_tids, *value);
      Dfs(child, child_tids, c);
    }
  }

  const VerticalIndex* index_;
  const FrequentnessMeasure* measure_;
  const char* failpoint_;
  MiningStats* stats_;
  RunController& rt_;
  const FrequentEmit* emit_;
  WorkUnitBudget unit_;
  std::vector<Item> candidates_;
};

}  // namespace

void EnumerateFrequent(const VerticalIndex& index,
                       const FrequentnessMeasure& measure,
                       const char* failpoint, MiningStats* stats,
                       RunController& rt, const FrequentEmit& emit) {
  FrequentEnumeration(index, measure, failpoint, stats, rt, emit).Run();
}

FrequentnessMeasure PrFAbove(const CandidateOracle& oracle, double pft) {
  return [&oracle, pft](const TidSet& tids,
                        MiningStats* stats) -> std::optional<double> {
    QualifyRequest req;
    req.threshold = pft;
    const double pr_f = oracle.Qualify(tids, req, stats);
    if (pr_f <= pft) return std::nullopt;
    return pr_f;
  };
}

std::vector<PfiEntry> EnumeratePfis(const VerticalIndex& index,
                                    const FrequentnessMeasure& measure,
                                    MiningStats* stats, RunController& rt) {
  std::vector<PfiEntry> pfis;
  EnumerateFrequent(index, measure, "pfi/node", stats, rt,
                    [&pfis](const Itemset& items, const TidSet& tids,
                            double pr_f) {
                      pfis.push_back(PfiEntry{items, pr_f, tids});
                    });
  std::sort(pfis.begin(), pfis.end());
  return pfis;
}

}  // namespace pfci
