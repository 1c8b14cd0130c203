#include "wmcast/setcover/set_system.hpp"

#include <algorithm>
#include <limits>

#include "wmcast/util/assert.hpp"

namespace wmcast::setcover {

SetSystem::SetSystem(int n_elements, int n_groups, std::vector<CandidateSet> sets)
    : n_elements_(n_elements),
      n_groups_(n_groups),
      sets_(std::move(sets)),
      group_sets_(static_cast<size_t>(n_groups)),
      coverable_(n_elements) {
  util::require(n_elements >= 0, "SetSystem: negative universe");
  util::require(n_groups >= 0, "SetSystem: negative group count");
  for (int j = 0; j < n_sets(); ++j) {
    const auto& s = sets_[static_cast<size_t>(j)];
    util::require(s.members.size() == n_elements_, "SetSystem: member universe mismatch");
    util::require(s.cost > 0.0, "SetSystem: set costs must be positive");
    util::require(s.group >= 0 && s.group < n_groups_, "SetSystem: invalid group");
    group_sets_[static_cast<size_t>(s.group)].push_back(j);
    coverable_.or_assign(s.members);
    max_cost_ = std::max(max_cost_, s.cost);
  }

  // min over sets containing e of cost, maximized over coverable e.
  std::vector<double> min_cost(static_cast<size_t>(n_elements_),
                               std::numeric_limits<double>::infinity());
  for (const auto& s : sets_) {
    s.members.for_each([&](int e) {
      min_cost[static_cast<size_t>(e)] = std::min(min_cost[static_cast<size_t>(e)], s.cost);
    });
  }
  min_feasible_budget_ = 0.0;
  coverable_.for_each([&](int e) {
    min_feasible_budget_ = std::max(min_feasible_budget_, min_cost[static_cast<size_t>(e)]);
  });
}

core::CoverageEngine to_engine(const SetSystem& sys) {
  core::CoverageEngine eng;
  eng.reset(sys.n_elements(), sys.n_groups());
  std::vector<int32_t> members;
  for (int j = 0; j < sys.n_sets(); ++j) {
    const auto& s = sys.set(j);
    members.clear();
    s.members.for_each([&](int e) { members.push_back(e); });
    eng.add_set(s.group, s.session, s.tx_rate, s.cost, members);
  }
  eng.finish();
  return eng;
}

}  // namespace wmcast::setcover
