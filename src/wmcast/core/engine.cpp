#include "wmcast/core/engine.hpp"

#include <algorithm>
#include <limits>

#include "wmcast/util/assert.hpp"

namespace wmcast::core {

void CoverageEngine::reset(int n_elements, int n_groups) {
  util::require(n_elements >= 0, "CoverageEngine: negative universe");
  util::require(n_groups >= 0, "CoverageEngine: negative group count");
  n_elements_ = n_elements;
  n_groups_ = n_groups;
  indexed_ = false;
  mem_off_.clear();
  mem_len_.clear();
  cost_.clear();
  cost_mant_.clear();
  cost_exp_.clear();
  tx_rate_.clear();
  group_.clear();
  session_.clear();
  mem_.clear();
  inv_off_.clear();
  inv_sets_.clear();
  coverable_ = util::DynBitset(n_elements);
  cost_caches_dirty_ = true;
}

int CoverageEngine::add_set(int group, int session, double tx_rate, double cost,
                            std::span<const int32_t> members) {
  util::require(!indexed_, "CoverageEngine: add_set after finish()");
  util::require(group >= 0 && group < n_groups_, "CoverageEngine: invalid group");
  util::require(cost > 0.0, "CoverageEngine: set costs must be positive");
  const int j = n_set_slots();
  mem_off_.push_back(static_cast<int32_t>(mem_.size()));
  mem_len_.push_back(static_cast<int32_t>(members.size()));
  cost_.push_back(cost);
  int64_t mant = 0;
  int32_t exp = 0;
  decompose_cost(cost, mant, exp);
  cost_mant_.push_back(mant);
  cost_exp_.push_back(exp);
  tx_rate_.push_back(tx_rate);
  group_.push_back(group);
  session_.push_back(session);
  for (const int32_t e : members) {
    util::require(e >= 0 && e < n_elements_, "CoverageEngine: member out of range");
    mem_.push_back(e);
    coverable_.set(e);
  }
  cost_caches_dirty_ = true;
  return j;
}

void CoverageEngine::finish() {
  // Counting sort: inv_off_[e + 1] counts e's sets, the prefix sum turns the
  // counts into slice starts, and the scatter below advances inv_off_[e]
  // from e's start to its end (= the start of e + 1). Shifting the array one
  // place right then restores the starts. Sets are scattered in id order, so
  // every slice lists ascending ids.
  inv_off_.assign(static_cast<size_t>(n_elements_) + 1, 0);
  for (const int32_t e : mem_) ++inv_off_[static_cast<size_t>(e) + 1];
  for (size_t e = 1; e < inv_off_.size(); ++e) inv_off_[e] += inv_off_[e - 1];
  inv_sets_.resize(mem_.size());
  for (int j = 0; j < n_set_slots(); ++j) {
    for (const int32_t e : members(j)) {
      inv_sets_[static_cast<size_t>(inv_off_[static_cast<size_t>(e)]++)] = j;
    }
  }
  std::copy_backward(inv_off_.begin(), inv_off_.end() - 1, inv_off_.end());
  inv_off_[0] = 0;
  indexed_ = true;
}

size_t CoverageEngine::memory_bytes() const {
  const auto bytes = [](const auto& v) { return v.size() * sizeof(v[0]); };
  return bytes(mem_off_) + bytes(mem_len_) + bytes(cost_) + bytes(cost_mant_) +
         bytes(cost_exp_) + bytes(tx_rate_) + bytes(group_) + bytes(session_) +
         bytes(mem_) + bytes(inv_off_) + bytes(inv_sets_) +
         coverable_.word_count() * sizeof(uint64_t);
}

double CoverageEngine::max_set_cost() const {
  if (cost_caches_dirty_) {
    max_cost_ = 0.0;
    std::vector<double> min_cost(static_cast<size_t>(n_elements_),
                                 std::numeric_limits<double>::infinity());
    for (int j = 0; j < n_set_slots(); ++j) {
      const double c = cost_[static_cast<size_t>(j)];
      max_cost_ = std::max(max_cost_, c);
      for (const int32_t e : members(j)) {
        min_cost[static_cast<size_t>(e)] = std::min(min_cost[static_cast<size_t>(e)], c);
      }
    }
    min_feasible_budget_ = 0.0;
    coverable_.for_each([&](int e) {
      min_feasible_budget_ =
          std::max(min_feasible_budget_, min_cost[static_cast<size_t>(e)]);
    });
    cost_caches_dirty_ = false;
  }
  return max_cost_;
}

double CoverageEngine::min_feasible_budget() const {
  max_set_cost();  // refreshes both caches
  return min_feasible_budget_;
}

}  // namespace wmcast::core
