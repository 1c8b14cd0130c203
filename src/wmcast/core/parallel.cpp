#include "wmcast/core/parallel.hpp"

#include <algorithm>
#include <cstdint>

namespace wmcast::core {

void SessionShards::build(const CoverageEngine& eng) {
  int n_shards = 0;
  for (int j = 0; j < eng.n_set_slots(); ++j) {
    n_shards = std::max(n_shards, eng.session(j) + 1);
  }
  // Controllers rebuild shards every sharded solve; reuse the target bitsets'
  // word storage instead of reallocating them.
  targets_.resize(static_cast<size_t>(n_shards));
  for (auto& t : targets_) {
    t.resize(eng.n_elements());
    t.reset_all();
  }
  for (int j = 0; j < eng.n_set_slots(); ++j) {
    auto& target = targets_[static_cast<size_t>(eng.session(j))];
    for (const int32_t e : eng.members(j)) target.set(e);
  }
  weights_.resize(static_cast<size_t>(n_shards));
  for (int k = 0; k < n_shards; ++k) {
    weights_[static_cast<size_t>(k)] = targets_[static_cast<size_t>(k)].count();
  }
}

CoverResult parallel_greedy_cover(const CoverageEngine& eng, util::ThreadPool& pool,
                                  ShardWorkspaces& wss, const SessionShards& shards,
                                  ParallelStats* stats) {
  const int n = shards.n_shards();
  std::vector<CoverResult> parts(static_cast<size_t>(n));
  if (wss.size() < static_cast<size_t>(pool.size())) {
    wss.resize(static_cast<size_t>(pool.size()));
  }
  pool.parallel_for(0, n, [&](int64_t b, int64_t e, int lane) {
    SolveWorkspace& ws = wss[static_cast<size_t>(lane)];
    for (int64_t k = b; k < e; ++k) {
      parts[static_cast<size_t>(k)] =
          greedy_cover(eng, ws, &shards.target(static_cast<int>(k)));
    }
  });

  if (stats != nullptr) {
    int64_t total = 0;
    int max_w = 0;
    for (int k = 0; k < n; ++k) {
      total += shards.weight(k);
      max_w = std::max(max_w, shards.weight(k));
    }
    stats->tasks = n;
    stats->workers = std::max(1, std::min(pool.size(), n));
    stats->imbalance =
        total > 0 ? static_cast<double>(max_w) * n / static_cast<double>(total) : 0.0;
  }

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

}  // namespace wmcast::core
