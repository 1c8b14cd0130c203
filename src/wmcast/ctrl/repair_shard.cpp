#include "wmcast/ctrl/repair_shard.hpp"

#include <algorithm>

#include "wmcast/assoc/local_search.hpp"
#include "wmcast/assoc/policy.hpp"
#include "wmcast/util/assert.hpp"
#include "wmcast/util/fp.hpp"
#include "wmcast/wlan/association.hpp"

namespace wmcast::ctrl {

namespace {

/// Polish budget: moves allowed per dirty user (at least 100 per task).
constexpr int kPolishMovesPerDirty = 50;

int find_root(std::vector<int>& parent, int a) {
  while (parent[static_cast<size_t>(a)] != a) {
    parent[static_cast<size_t>(a)] = parent[static_cast<size_t>(parent[static_cast<size_t>(a)])];
    a = parent[static_cast<size_t>(a)];
  }
  return a;
}

void unite(std::vector<int>& parent, int a, int b) {
  const int ra = find_root(parent, a);
  const int rb = find_root(parent, b);
  if (ra != rb) parent[static_cast<size_t>(std::max(ra, rb))] = std::min(ra, rb);
}

}  // namespace

void repair_sharded(const wlan::Scenario& sc, std::vector<int>& user_ap,
                    std::vector<std::vector<int>>& members,
                    const std::vector<int>& movable_rows,
                    const RepairShardParams& params, util::ThreadPool& pool,
                    std::vector<RepairLaneWorkspace>& lanes,
                    RepairShardStats* stats) {
  const int n_aps = sc.n_aps();

  // --- 1. partition: the movers first, then the other members of every
  // over-budget AP, whom an eviction would turn into movers. ----------------
  std::vector<char> movable(static_cast<size_t>(sc.n_users()), 0);
  for (const int u : movable_rows) movable[static_cast<size_t>(u)] = 1;
  std::vector<int> rows = movable_rows;
  for (int a = 0; a < n_aps; ++a) {
    const double load = wlan::ap_load_for_members(
        sc, a, members[static_cast<size_t>(a)], params.multi_rate);
    if (!util::exceeds_budget(load, sc.load_budget())) continue;
    for (const int u : members[static_cast<size_t>(a)]) {
      if (movable[static_cast<size_t>(u)] == 0) rows.push_back(u);
    }
  }
  ComponentTasks tasks;
  std::vector<int> isolated;  // movers with nowhere to go keep their value
  build_component_tasks(sc, rows, tasks, isolated);
  const int n_tasks = static_cast<int>(tasks.rows.size());
  std::vector<std::vector<int>> task_aps(static_cast<size_t>(n_tasks));
  for (int a = 0; a < n_aps; ++a) {
    const int t = tasks.ap_task[static_cast<size_t>(a)];
    if (t >= 0) task_aps[static_cast<size_t>(t)].push_back(a);
  }
  // rows[t] keeps input order, so task t's movers are its rows' movable prefix.
  std::vector<int> task_movers(static_cast<size_t>(n_tasks), 0);
  int total_movers = 0;
  int max_movers = 0;
  for (int t = 0; t < n_tasks; ++t) {
    int& m = task_movers[static_cast<size_t>(t)];
    for (const int u : tasks.rows[static_cast<size_t>(t)]) {
      if (movable[static_cast<size_t>(u)] == 0) break;
      ++m;
    }
    total_movers += m;
    max_movers = std::max(max_movers, m);
  }
  if (stats != nullptr) {
    stats->shards = n_tasks;
    stats->movers = total_movers;
    const double mean =
        n_tasks > 0 ? static_cast<double>(total_movers) / n_tasks : 0.0;
    stats->imbalance = mean > 0.0 ? static_cast<double>(max_movers) / mean
                                  : (n_tasks > 0 ? 1.0 : 0.0);
  }
  if (n_tasks == 0) return;

  // --- 2. per-task repair across the pool. ---------------------------------
  // Tasks touch disjoint APs and users, so they share user_ap / members /
  // the movable mask directly; only the load model and the pending/mover
  // lists are per-lane.
  while (lanes.size() < static_cast<size_t>(pool.size())) lanes.emplace_back();
  for (size_t l = 0; l < static_cast<size_t>(pool.size()); ++l) {
    lanes[l].model.reset(sc, params.multi_rate);
  }

  assoc::PolicyParams pp;
  pp.objective = assoc::Objective::kTotalLoad;
  pp.multi_rate = params.multi_rate;

  pool.parallel_for(0, n_tasks, [&](int64_t b, int64_t e, int lane) {
    RepairLaneWorkspace& ws = lanes[static_cast<size_t>(lane)];
    for (int64_t k = b; k < e; ++k) {
      const int t = tasks.order[static_cast<size_t>(k)];
      const std::vector<int>& aps = task_aps[static_cast<size_t>(t)];
      const std::vector<int>& task_rows = tasks.rows[static_cast<size_t>(t)];
      ws.model.begin_scope();
      ws.pending.clear();
      ws.movers.assign(task_rows.begin(),
                       task_rows.begin() + task_movers[static_cast<size_t>(t)]);
      for (const int a : aps) {
        for (const int u : members[static_cast<size_t>(a)]) {
          ws.model.add(a, sc.user_session(u), sc.link_rate(a, u));
        }
      }
      for (const int u : ws.movers) {
        if (user_ap[static_cast<size_t>(u)] == wlan::kNoAp) ws.pending.push_back(u);
      }

      // Budget peel: evict whoever frees the most load and re-place them.
      assoc::ClimbState st{user_ap, members, ws.model};
      const size_t first_evicted = ws.pending.size();
      for (const int a : aps) assoc::peel_over_budget(sc, st, a, &ws.pending);
      for (size_t i = first_evicted; i < ws.pending.size(); ++i) {
        const int u = ws.pending[i];
        if (movable[static_cast<size_t>(u)] == 0) {
          movable[static_cast<size_t>(u)] = 1;
          ws.movers.push_back(u);
        }
      }

      // Greedy placement with the distributed decision rule.
      std::sort(ws.pending.begin(), ws.pending.end());
      for (const int u : ws.pending) {
        const int a = assoc::choose_best_ap(sc, ws.model, u, wlan::kNoAp, pp);
        if (a != wlan::kNoAp) {
          members[static_cast<size_t>(a)].push_back(u);
          ws.model.add(a, sc.user_session(u), sc.link_rate(a, u));
          user_ap[static_cast<size_t>(u)] = a;
        }
      }

      if (params.polish && !ws.movers.empty()) {
        st.total = 0.0;
        for (const int a : aps) st.total += ws.model.load(a);
        st.served = 0;
        for (const int u : ws.movers) {
          if (user_ap[static_cast<size_t>(u)] != wlan::kNoAp) ++st.served;
        }
        // Per task, not shared across lanes: the move cap depends on it.
        assoc::LocalSearchParams lp;
        lp.min_gain = params.polish_min_gain;
        lp.max_moves =
            std::max(100, kPolishMovesPerDirty * static_cast<int>(ws.movers.size()));
        assoc::climb(sc, lp, st, ws.movers);
      }
    }
  });
}

void build_component_tasks(const wlan::Scenario& sc,
                           const std::vector<int>& dirty_rows,
                           ComponentTasks& tasks, std::vector<int>& isolated) {
  tasks.rows.clear();
  tasks.order.clear();
  isolated.clear();
  const int n_aps = sc.n_aps();
  std::vector<int> parent(static_cast<size_t>(n_aps));
  for (int a = 0; a < n_aps; ++a) parent[static_cast<size_t>(a)] = a;
  for (const int u : dirty_rows) {
    const auto nb = sc.aps_of_user(u);
    for (size_t i = 1; i < nb.size(); ++i) unite(parent, nb[0], nb[i]);
  }

  // One task per component root with work. unite() always parents to the
  // smaller id, so a component's root IS its lowest united AP — the task key.
  std::vector<int> task_of_root(static_cast<size_t>(n_aps), -1);
  std::vector<int> task_key;
  for (const int u : dirty_rows) {
    const auto nb = sc.aps_of_user(u);
    if (nb.empty()) {
      isolated.push_back(u);
      continue;
    }
    const int r = find_root(parent, nb[0]);
    int& t = task_of_root[static_cast<size_t>(r)];
    if (t < 0) {
      t = static_cast<int>(tasks.rows.size());
      tasks.rows.emplace_back();
      task_key.push_back(r);
    }
    tasks.rows[static_cast<size_t>(t)].push_back(u);
  }

  tasks.ap_task.resize(static_cast<size_t>(n_aps));
  for (int a = 0; a < n_aps; ++a) {
    tasks.ap_task[static_cast<size_t>(a)] =
        task_of_root[static_cast<size_t>(find_root(parent, a))];
  }

  const int n_tasks = static_cast<int>(tasks.rows.size());
  tasks.order.resize(static_cast<size_t>(n_tasks));
  for (int t = 0; t < n_tasks; ++t) tasks.order[static_cast<size_t>(t)] = t;
  const auto& pos = sc.ap_positions();
  if (pos.size() >= static_cast<size_t>(n_aps) && n_aps > 0) {
    const auto& grid = sc.ap_grid();
    std::sort(tasks.order.begin(), tasks.order.end(), [&](int x, int y) {
      const int ax = task_key[static_cast<size_t>(x)];
      const int ay = task_key[static_cast<size_t>(y)];
      const int64_t kx = grid.cell_key(pos[static_cast<size_t>(ax)]);
      const int64_t ky = grid.cell_key(pos[static_cast<size_t>(ay)]);
      if (kx != ky) return kx < ky;
      return ax < ay;
    });
  }
}

}  // namespace wmcast::ctrl
