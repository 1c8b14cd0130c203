#include "wmcast/ctrl/repair_shard.hpp"

#include <algorithm>
#include <limits>

#include "wmcast/assoc/policy.hpp"
#include "wmcast/util/assert.hpp"
#include "wmcast/util/fp.hpp"
#include "wmcast/wlan/association.hpp"

namespace wmcast::ctrl {

namespace {

/// Same tie tolerance as assoc/local_search.cpp: the polish below mirrors its
/// accept/reject arithmetic, only against task-local totals.
constexpr double kImproveEps = 1e-12;

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

/// One task's restricted local-search polish (kTotalLoad): the move loop of
/// assoc/local_search.cpp with the objective key evaluated against the
/// task-local (served, total) pair. Probes cost O(rate levels) through the
/// model; the probe/rollback deltas are added and subtracted on the running
/// total exactly as an accepted move would, so the epsilon tie-breaks see the
/// same rounding a physical trial sequence produces.
void polish_task(const wlan::Scenario& sc, const RepairShardParams& params,
                 const std::vector<int>& task_aps, std::vector<int>& user_ap,
                 std::vector<std::vector<int>>& members, wlan::LoadModel& model,
                 const std::vector<int>& movers) {
  double total = 0.0;
  for (const int a : task_aps) total += model.load(a);
  int served = 0;
  for (const int u : movers) {
    if (user_ap[static_cast<size_t>(u)] != wlan::kNoAp) ++served;
  }
  const int max_moves =
      std::max(100, kPolishMovesPerDirty * static_cast<int>(movers.size()));

  struct Key {
    double k1, k2;
    bool better_than(const Key& o) const {
      if (k1 < o.k1 - kImproveEps) return true;
      if (k1 > o.k1 + kImproveEps) return false;
      return k2 < o.k2 - kImproveEps;
    }
  };

  int moves = 0;
  bool improved = true;
  while (improved && moves < max_moves) {
    improved = false;
    for (size_t mi = 0; mi < movers.size() && moves < max_moves; ++mi) {
      const int u = movers[mi];
      const int cur = user_ap[static_cast<size_t>(u)];
      const int s_u = sc.user_session(u);
      const Key before{static_cast<double>(-served), total};

      // The unplace half of every probe is the same: u leaves cur.
      double lc_wo = 0.0;
      double d_un = 0.0;
      if (cur != wlan::kNoAp) {
        lc_wo = model.load_without(cur, s_u, sc.link_rate(cur, u));
        d_un = lc_wo - model.load(cur);
      }
      const int probe_served = cur != wlan::kNoAp ? served : served + 1;

      int best_target = cur;
      double best_rate = 0.0;
      Key best_key = before;
      const auto neighbors = sc.aps_of_user(u);
      const wlan::RateSpan rates = sc.rates_of_user(u);
      for (size_t i = 0; i < neighbors.size(); ++i) {
        const int a = neighbors[i];
        if (a == cur) continue;
        const double la_w = model.load_with(a, s_u, rates[i]);
        const double d_pl = la_w - model.load(a);
        double t = total;
        if (cur != wlan::kNoAp) t += d_un;
        t += d_pl;
        const bool feasible = util::fits_budget(la_w, sc.load_budget());
        const Key k{static_cast<double>(-probe_served), t};
        t -= d_pl;
        if (cur != wlan::kNoAp) t -= d_un;
        total = t;
        if (feasible && k.better_than(best_key)) {
          best_key = k;
          best_target = a;
          best_rate = rates[i];
        }
      }
      const bool serves_more = best_key.k1 < before.k1 - kImproveEps;
      const bool enough_gain =
          params.polish_min_gain <= 0.0 || serves_more ||
          before.k2 - best_key.k2 >= params.polish_min_gain - kImproveEps;
      if (best_target != cur && enough_gain) {
        if (cur != wlan::kNoAp) {
          auto& m = members[static_cast<size_t>(cur)];
          m.erase(std::find(m.begin(), m.end(), u));
          const double old = model.load(cur);
          total += model.remove(cur, s_u, sc.link_rate(cur, u)) - old;
          --served;
        }
        members[static_cast<size_t>(best_target)].push_back(u);
        const double old = model.load(best_target);
        total += model.add(best_target, s_u, best_rate) - old;
        user_ap[static_cast<size_t>(u)] = best_target;
        ++served;
        ++moves;
        improved = true;
      }
    }
  }
}

}  // namespace

void repair_sharded(const wlan::Scenario& sc, std::vector<int>& user_ap,
                    std::vector<std::vector<int>>& members,
                    const std::vector<int>& movable_rows,
                    const RepairShardParams& params, util::ThreadPool& pool,
                    std::vector<RepairLaneWorkspace>& lanes,
                    RepairShardStats* stats) {
  const int n_aps = sc.n_aps();

  // --- 1. union-find closure over the APs repair may touch. ----------------
  std::vector<int> parent(static_cast<size_t>(n_aps));
  for (int a = 0; a < n_aps; ++a) parent[static_cast<size_t>(a)] = a;
  for (const int u : movable_rows) {
    const auto nb = sc.aps_of_user(u);
    for (size_t i = 1; i < nb.size(); ++i) unite(parent, nb[0], nb[i]);
  }
  std::vector<int> over_budget;
  for (int a = 0; a < n_aps; ++a) {
    const double load = wlan::ap_load_for_members(
        sc, a, members[static_cast<size_t>(a)], params.multi_rate);
    if (util::exceeds_budget(load, sc.load_budget())) over_budget.push_back(a);
  }
  // Evictions turn an over-budget AP's members into movers: close the
  // component over every candidate AP they could land on.
  for (const int a : over_budget) {
    for (const int u : members[static_cast<size_t>(a)]) {
      for (const int b : sc.aps_of_user(u)) unite(parent, a, b);
    }
  }

  // --- 2. components with work become tasks (ascending min-AP order). ------
  std::vector<char> root_has_work(static_cast<size_t>(n_aps), 0);
  for (const int u : movable_rows) {
    const auto nb = sc.aps_of_user(u);
    if (!nb.empty()) root_has_work[static_cast<size_t>(find_root(parent, nb[0]))] = 1;
  }
  for (const int a : over_budget) {
    root_has_work[static_cast<size_t>(find_root(parent, a))] = 1;
  }
  std::vector<int> task_of_root(static_cast<size_t>(n_aps), -1);
  std::vector<std::vector<int>> task_aps;
  for (int a = 0; a < n_aps; ++a) {
    const int r = find_root(parent, a);
    if (!root_has_work[static_cast<size_t>(r)]) continue;
    int& t = task_of_root[static_cast<size_t>(r)];
    if (t < 0) {
      t = static_cast<int>(task_aps.size());
      task_aps.emplace_back();
    }
    task_aps[static_cast<size_t>(t)].push_back(a);
  }
  const int n_tasks = static_cast<int>(task_aps.size());
  std::vector<std::vector<int>> task_movers(static_cast<size_t>(n_tasks));
  for (const int u : movable_rows) {
    const auto nb = sc.aps_of_user(u);
    if (nb.empty()) continue;  // nowhere to place; keeps its carried value
    const int t = task_of_root[static_cast<size_t>(find_root(parent, nb[0]))];
    task_movers[static_cast<size_t>(t)].push_back(u);
  }

  // Dispatch order: by (grid cell of the task's lowest AP, lowest AP id) when
  // the scenario carries geometry — neighboring APs' tasks then share a
  // static chunk and walk cache-adjacent rows. A pure function of the AP
  // layout, so the order (and every stat below) is thread-invariant.
  std::vector<int> order(static_cast<size_t>(n_tasks));
  for (int t = 0; t < n_tasks; ++t) order[static_cast<size_t>(t)] = t;
  const auto& pos = sc.ap_positions();
  if (pos.size() >= static_cast<size_t>(n_aps) && n_aps > 0) {
    const auto& grid = sc.ap_grid();
    std::sort(order.begin(), order.end(), [&](int x, int y) {
      const int ax = task_aps[static_cast<size_t>(x)].front();
      const int ay = task_aps[static_cast<size_t>(y)].front();
      const int64_t kx = grid.cell_key(pos[static_cast<size_t>(ax)]);
      const int64_t ky = grid.cell_key(pos[static_cast<size_t>(ay)]);
      if (kx != ky) return kx < ky;
      return ax < ay;
    });
  }

  if (stats != nullptr) {
    stats->shards = n_tasks;
    int total_movers = 0;
    int max_movers = 0;
    for (const auto& m : task_movers) {
      total_movers += static_cast<int>(m.size());
      max_movers = std::max(max_movers, static_cast<int>(m.size()));
    }
    stats->movers = total_movers;
    const double mean =
        n_tasks > 0 ? static_cast<double>(total_movers) / n_tasks : 0.0;
    stats->imbalance = mean > 0.0 ? static_cast<double>(max_movers) / mean
                                  : (n_tasks > 0 ? 1.0 : 0.0);
  }
  if (n_tasks == 0) return;

  // --- 3. per-task repair across the pool. ---------------------------------
  // Tasks touch disjoint APs and users, so they share user_ap / members /
  // the movable mask directly; only the load model and the pending/mover
  // lists are per-lane.
  std::vector<char> movable(static_cast<size_t>(sc.n_users()), 0);
  for (const int u : movable_rows) movable[static_cast<size_t>(u)] = 1;

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
      const std::vector<int>& aps = task_aps[static_cast<size_t>(order[static_cast<size_t>(k)])];
      const std::vector<int>& base_movers =
          task_movers[static_cast<size_t>(order[static_cast<size_t>(k)])];
      ws.model.begin_scope();
      ws.pending.clear();
      ws.movers.assign(base_movers.begin(), base_movers.end());
      for (const int a : aps) {
        for (const int u : members[static_cast<size_t>(a)]) {
          ws.model.add(a, sc.user_session(u), sc.link_rate(a, u));
        }
      }
      for (const int u : base_movers) {
        if (user_ap[static_cast<size_t>(u)] == wlan::kNoAp) ws.pending.push_back(u);
      }

      // Budget peel: evict whoever frees the most load and re-place them.
      for (const int a : aps) {
        auto& m = members[static_cast<size_t>(a)];
        double load = ws.model.load(a);
        while (util::exceeds_budget(load, sc.load_budget()) && !m.empty()) {
          int best_u = m.front();
          double best_drop = -std::numeric_limits<double>::infinity();
          for (const int u : m) {
            const double drop =
                load - ws.model.load_without(a, sc.user_session(u), sc.link_rate(a, u));
            if (drop > best_drop) {
              best_drop = drop;
              best_u = u;
            }
          }
          m.erase(std::find(m.begin(), m.end(), best_u));
          load = ws.model.remove(a, sc.user_session(best_u), sc.link_rate(a, best_u));
          user_ap[static_cast<size_t>(best_u)] = wlan::kNoAp;
          ws.pending.push_back(best_u);
          if (movable[static_cast<size_t>(best_u)] == 0) {
            movable[static_cast<size_t>(best_u)] = 1;
            ws.movers.push_back(best_u);
          }
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
        polish_task(sc, params, aps, user_ap, members, ws.model, ws.movers);
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
