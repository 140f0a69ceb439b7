#include "src/serve/batch_planner.h"

#include <algorithm>
#include <map>
#include <utility>

namespace pfci {

BatchPlan PlanBatch(std::span<const MiningRequest> requests) {
  BatchPlan plan;
  plan.size = requests.size();
  // Algorithm -> position in plan.groups; std::map only resolves repeats
  // of a key, group order itself is first-appearance (submission) order.
  std::map<Algorithm, std::size_t> group_index;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::string error = ValidateRequest(requests[i]);
    if (!error.empty()) {
      plan.invalid.push_back(i);
      plan.invalid_reasons.push_back(std::move(error));
      continue;
    }
    const auto [it, inserted] =
        group_index.emplace(requests[i].algorithm, plan.groups.size());
    if (inserted) plan.groups.emplace_back();
    plan.groups[it->second].members.push_back(i);
  }
  // Descending min_sup; stable_sort keeps equal thresholds in submission
  // order, so the plan (and every counter downstream of it) is
  // deterministic.
  for (BatchGroup& group : plan.groups) {
    std::stable_sort(group.members.begin(), group.members.end(),
                     [&requests](std::size_t a, std::size_t b) {
                       return requests[a].params.min_sup >
                              requests[b].params.min_sup;
                     });
  }
  return plan;
}

}  // namespace pfci
