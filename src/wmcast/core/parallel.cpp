#include "wmcast/core/parallel.hpp"

#include <algorithm>
#include <map>

#include "wmcast/util/assert.hpp"

namespace wmcast::core {

void SessionShards::build_impl(const CoverageEngine& eng,
                               const std::vector<int>& shard_of_session) {
  const int n_shards =
      shard_of_session.empty()
          ? 0
          : 1 + *std::max_element(shard_of_session.begin(), shard_of_session.end());
  // Controllers rebuild shards every sharded solve; reuse the target bitsets'
  // word storage and the per-shard vectors instead of reallocating them.
  targets_.resize(static_cast<size_t>(n_shards));
  for (auto& t : targets_) {
    t.resize(eng.n_elements());
    t.reset_all();
  }
  weights_.assign(static_cast<size_t>(n_shards), 0);
  sessions_.resize(static_cast<size_t>(n_shards));
  for (auto& s : sessions_) s.clear();
  for (size_t s = 0; s < shard_of_session.size(); ++s) {
    sessions_[static_cast<size_t>(shard_of_session[s])].push_back(static_cast<int>(s));
  }
  for (int j = 0; j < eng.n_set_slots(); ++j) {
    auto& target = targets_[static_cast<size_t>(
        shard_of_session[static_cast<size_t>(eng.session(j))])];
    for (const int32_t e : eng.members(j)) target.set(e);
  }
  for (int k = 0; k < n_shards; ++k) {
    weights_[static_cast<size_t>(k)] = targets_[static_cast<size_t>(k)].count();
  }
}

void SessionShards::build(const CoverageEngine& eng) {
  int max_session = -1;
  for (int j = 0; j < eng.n_set_slots(); ++j) {
    max_session = std::max(max_session, eng.session(j));
  }
  std::vector<int> identity(static_cast<size_t>(max_session + 1));
  for (size_t s = 0; s < identity.size(); ++s) identity[s] = static_cast<int>(s);
  build_impl(eng, identity);
}

void SessionShards::build(const CoverageEngine& eng,
                          std::span<const int> session_component) {
  int max_session = -1;
  for (int j = 0; j < eng.n_set_slots(); ++j) {
    max_session = std::max(max_session, eng.session(j));
  }
  // Dense shard ids ordered by ascending component label; sessions past the
  // span get fresh labels above every provided one so they shard alone.
  std::map<int, std::vector<int>> by_label;
  int next_extra = session_component.empty()
                       ? 0
                       : 1 + *std::max_element(session_component.begin(),
                                               session_component.end());
  std::vector<int> shard_of_session(static_cast<size_t>(max_session + 1), 0);
  for (int s = 0; s <= max_session; ++s) {
    const int label = s < static_cast<int>(session_component.size())
                          ? session_component[static_cast<size_t>(s)]
                          : next_extra++;
    by_label[label].push_back(s);
  }
  int shard = 0;
  for (const auto& [label, sessions] : by_label) {
    for (const int s : sessions) shard_of_session[static_cast<size_t>(s)] = shard;
    ++shard;
  }
  build_impl(eng, shard_of_session);
}

void fill_parallel_stats(const SessionShards& shards, const util::ThreadPool& pool,
                         ParallelStats& stats) {
  stats.tasks = shards.n_shards();
  stats.workers = std::max(1, std::min(pool.size(), shards.n_shards()));
  int64_t total = 0;
  int max_w = 0;
  for (int k = 0; k < shards.n_shards(); ++k) {
    total += shards.weight(k);
    max_w = std::max(max_w, shards.weight(k));
  }
  stats.imbalance =
      total > 0 ? static_cast<double>(max_w) * shards.n_shards() /
                      static_cast<double>(total)
                : 0.0;
}

CoverResult parallel_greedy_cover(const CoverageEngine& eng, util::ThreadPool& pool,
                                  ShardWorkspaces& wss, const SessionShards& shards,
                                  ParallelStats* stats) {
  auto parts = parallel_solve_sessions<CoverResult>(
      shards, pool, wss,
      [&eng](int, SolveWorkspace& ws, const util::DynBitset& target) {
        return greedy_cover(eng, ws, &target);
      },
      stats);

  CoverResult merged;
  merged.covered = util::DynBitset(eng.n_elements());
  merged.complete = true;
  for (const auto& part : parts) {
    merged.chosen.insert(merged.chosen.end(), part.chosen.begin(), part.chosen.end());
    merged.covered.or_assign(part.covered);
    merged.total_cost += part.total_cost;
    merged.complete = merged.complete && part.complete;
  }
  return merged;
}

McgResult parallel_mcg_cover(const CoverageEngine& eng, util::ThreadPool& pool,
                             ShardWorkspaces& wss, const SessionShards& shards,
                             std::span<const double> group_budgets, bool augment,
                             ParallelStats* stats) {
  util::require(static_cast<int>(group_budgets.size()) == eng.n_groups(),
                "parallel_mcg_cover: one budget per group required");

  auto parts = parallel_solve_sessions<McgResult>(
      shards, pool, wss,
      [&eng, group_budgets, augment](int, SolveWorkspace& ws,
                                     const util::DynBitset& target) {
        McgResult res = mcg_cover(eng, ws, group_budgets, &target);
        // Shard-local top-up against this shard's (per-channel) budgets.
        if (augment) mcg_top_up(eng, ws, group_budgets, res, &target);
        return res;
      },
      stats);

  McgResult merged;
  merged.covered = util::DynBitset(eng.n_elements());
  merged.covered_h = util::DynBitset(eng.n_elements());
  for (const auto& part : parts) {
    merged.h.insert(merged.h.end(), part.h.begin(), part.h.end());
    merged.violator.insert(merged.violator.end(), part.violator.begin(),
                           part.violator.end());
    merged.h1.insert(merged.h1.end(), part.h1.begin(), part.h1.end());
    merged.h2.insert(merged.h2.end(), part.h2.begin(), part.h2.end());
    merged.chosen.insert(merged.chosen.end(), part.chosen.begin(), part.chosen.end());
    merged.covered.or_assign(part.covered);
    merged.covered_h.or_assign(part.covered_h);
  }
  return merged;
}

ScgResult parallel_scg_cover(const CoverageEngine& eng, util::ThreadPool& pool,
                             ShardWorkspaces& wss, const SessionShards& shards,
                             const ScgParams& params, ParallelStats* stats) {
  auto parts = parallel_solve_sessions<ScgResult>(
      shards, pool, wss,
      [&eng, &params](int, SolveWorkspace& ws, const util::DynBitset& target) {
        return scg_cover(eng, ws, params, &target);
      },
      stats);

  ScgResult merged;
  merged.covered = util::DynBitset(eng.n_elements());
  merged.feasible = true;
  merged.group_cost.assign(static_cast<size_t>(eng.n_groups()), 0.0);
  for (const auto& part : parts) {
    merged.chosen.insert(merged.chosen.end(), part.chosen.begin(), part.chosen.end());
    merged.covered.or_assign(part.covered);
    merged.feasible = merged.feasible && part.feasible;
    merged.bstar = std::max(merged.bstar, part.bstar);
    // Per-channel airtime: the binding max is within a shard, while the
    // per-AP totals sum across shards for reporting.
    merged.max_group_cost = std::max(merged.max_group_cost, part.max_group_cost);
    for (size_t g = 0; g < part.group_cost.size(); ++g) {
      merged.group_cost[g] += part.group_cost[g];
    }
    merged.passes += part.passes;
  }
  return merged;
}

}  // namespace wmcast::core
