#include "wmcast/assoc/distributed.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "wmcast/util/assert.hpp"

namespace wmcast::assoc {

namespace {

uint64_t fnv1a_hash(const std::vector<int>& v) {
  uint64_t h = 1469598103934665603ull;
  for (const int x : v) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= static_cast<uint64_t>((x >> (8 * byte)) & 0xff);
      h *= 1099511628211ull;
    }
  }
  return h;
}

void move_user(std::vector<std::vector<int>>& members, std::vector<int>& user_ap, int u,
               int to) {
  const int from = user_ap[static_cast<size_t>(u)];
  if (from == to) return;
  if (from != wlan::kNoAp) {
    auto& m = members[static_cast<size_t>(from)];
    const auto it = std::find(m.begin(), m.end(), u);
    WMCAST_ASSERT(it != m.end(), "distributed: member list out of sync");
    m.erase(it);
  }
  if (to != wlan::kNoAp) members[static_cast<size_t>(to)].push_back(u);
  user_ap[static_cast<size_t>(u)] = to;
}

std::string algorithm_name(const DistributedParams& p) {
  const std::string name = p.objective == Objective::kLoadVector ? "BLA-D" : "MNU/MLA-D";
  return p.mode == UpdateMode::kLocked ? name + "-lock" : name;
}

}  // namespace

Solution distributed_associate(const wlan::Scenario& sc, util::Rng& rng,
                               const DistributedParams& params, LockStats* lock_stats) {
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<int> order = params.order;
  if (order.empty()) {
    order = util::iota_permutation(sc.n_users());
    rng.shuffle(order);
  }
  util::require(static_cast<int>(order.size()) == sc.n_users(),
                "distributed_associate: order must list every user exactly once");

  PolicyParams policy;
  policy.objective = params.objective;
  policy.enforce_budget = params.enforce_budget;
  policy.multi_rate = params.multi_rate;

  std::vector<int> user_ap(static_cast<size_t>(sc.n_users()), wlan::kNoAp);
  std::vector<std::vector<int>> members(static_cast<size_t>(sc.n_aps()));
  if (!params.initial.user_ap.empty()) {
    util::require(params.initial.n_users() == sc.n_users(),
                  "distributed_associate: initial association size mismatch");
    for (int u = 0; u < sc.n_users(); ++u) {
      const int a = params.initial.ap_of(u);
      if (a == wlan::kNoAp) continue;
      util::require(a >= 0 && a < sc.n_aps() && sc.in_range(a, u),
                    "distributed_associate: invalid initial association");
      user_ap[static_cast<size_t>(u)] = a;
      members[static_cast<size_t>(a)].push_back(u);
    }
  }

  int rounds = 0;
  bool converged = false;
  LockStats locks;
  std::vector<int> decision;
  std::vector<int> lock_holder;
  std::unordered_set<uint64_t> seen_states;
  seen_states.insert(fnv1a_hash(user_ap));

  for (int round = 0; round < params.max_rounds; ++round) {
    ++rounds;
    bool changed = false;

    if (params.mode == UpdateMode::kSequential) {
      for (const int u : order) {
        const int target = choose_best_ap(sc, u, members, user_ap[static_cast<size_t>(u)],
                                          policy);
        if (target != user_ap[static_cast<size_t>(u)]) {
          move_user(members, user_ap, u, target);
          changed = true;
        }
      }
    } else {
      // Everyone decides against the same snapshot, then the moves apply: all
      // of them, or in locked mode those of the movers that hold every lock.
      decision.assign(static_cast<size_t>(sc.n_users()), wlan::kNoAp);
      for (const int u : order) {
        decision[static_cast<size_t>(u)] =
            choose_best_ap(sc, u, members, user_ap[static_cast<size_t>(u)], policy);
      }
      const bool locked = params.mode == UpdateMode::kLocked;
      const auto moves = [&](int u) {
        return decision[static_cast<size_t>(u)] != user_ap[static_cast<size_t>(u)];
      };
      if (locked) {
        lock_holder.assign(static_cast<size_t>(sc.n_aps()), sc.n_users());
        for (const int u : order) {
          if (!moves(u)) continue;
          for (const int a : sc.aps_of_user(u)) {
            int& holder = lock_holder[static_cast<size_t>(a)];
            holder = std::min(holder, u);
          }
        }
      }
      for (const int u : order) {
        if (!moves(u)) continue;
        if (locked) {
          const auto aps = sc.aps_of_user(u);
          const bool holds_all = std::all_of(aps.begin(), aps.end(), [&](int a) {
            return lock_holder[static_cast<size_t>(a)] == u;
          });
          if (!holds_all) {
            ++locks.deferrals;
            continue;
          }
          ++locks.lock_grants;
        }
        move_user(members, user_ap, u, decision[static_cast<size_t>(u)]);
        changed = true;
      }
    }

    if (!changed) {
      converged = true;
      break;
    }
    if (params.mode == UpdateMode::kSimultaneous) {
      // Revisiting a state under deterministic simultaneous updates means a
      // cycle: the protocol will oscillate forever (paper Fig. 4).
      if (!seen_states.insert(fnv1a_hash(user_ap)).second) break;
    }
  }

  Solution sol = make_solution(algorithm_name(params), sc,
                               wlan::Association{std::move(user_ap)}, params.multi_rate);
  sol.rounds = rounds;
  sol.converged = converged;
  sol.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (lock_stats != nullptr) *lock_stats = locks;
  return sol;
}

Solution distributed_mnu(const wlan::Scenario& sc, util::Rng& rng) {
  DistributedParams p;
  p.objective = Objective::kTotalLoad;
  Solution sol = distributed_associate(sc, rng, p);
  sol.algorithm = "MNU-D";
  return sol;
}

Solution distributed_mla(const wlan::Scenario& sc, util::Rng& rng) {
  DistributedParams p;
  p.objective = Objective::kTotalLoad;
  Solution sol = distributed_associate(sc, rng, p);
  sol.algorithm = "MLA-D";
  return sol;
}

Solution distributed_bla(const wlan::Scenario& sc, util::Rng& rng) {
  DistributedParams p;
  p.objective = Objective::kLoadVector;
  Solution sol = distributed_associate(sc, rng, p);
  sol.algorithm = "BLA-D";
  return sol;
}

}  // namespace wmcast::assoc
