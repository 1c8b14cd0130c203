#include "wmcast/assoc/centralized.hpp"

#include <chrono>

#include "wmcast/assoc/kconn.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/setcover/materialize.hpp"
#include "wmcast/setcover/reduction.hpp"

namespace wmcast::assoc {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Grows the k-connectivity overlay on top of the base solve (no-op at k == 1,
// keeping the legacy Solution bit-identical). The local augmentation rule
// reads the scenario CSR directly and is thread-invariant whenever the base
// solve is.
void apply_kconn(const wlan::Scenario& sc, const CentralizedParams& params,
                 Solution& sol, bool enforce_budget) {
  KconnParams kp;
  kp.k = params.k;
  kp.multi_rate = params.multi_rate;
  kp.enforce_budget = enforce_budget;
  finalize_kconn(sc, sol, kp);
}

}  // namespace

void EngineContext::build(const wlan::Scenario& sc, bool multi_rate) {
  setcover::build_engine(sc, multi_rate, engine);
}

Solution centralized_mla(const wlan::Scenario& sc, const CentralizedParams& params,
                         EngineContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  core::CoverResult greedy;
  if (params.pool != nullptr) {
    ctx.shards.build(ctx.engine);
    greedy = core::parallel_greedy_cover(ctx.engine, *params.pool, ctx.shard_ws,
                                         ctx.shards, &ctx.parallel);
  } else {
    greedy = core::greedy_cover(ctx.engine, ctx.ws);
  }
  auto assoc = setcover::materialize(sc, ctx.engine, greedy.chosen);
  Solution sol = make_solution("MLA-C", sc, std::move(assoc), params.multi_rate);
  if (params.k >= 2) apply_kconn(sc, params, sol, /*enforce_budget=*/false);
  sol.solve_seconds = seconds_since(t0);
  return sol;
}

Solution centralized_bla(const wlan::Scenario& sc, const CentralizedParams& params,
                         const core::ScgParams& scg_params, EngineContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  core::ScgResult scg;
  if (params.pool != nullptr) {
    ctx.shards.build(ctx.engine);
    scg = core::parallel_scg_cover(ctx.engine, *params.pool, ctx.shard_ws,
                                   ctx.shards, scg_params, &ctx.parallel);
  } else {
    scg = core::scg_cover(ctx.engine, ctx.ws, scg_params);
  }
  auto assoc = setcover::materialize(sc, ctx.engine, scg.chosen);
  Solution sol = make_solution("BLA-C", sc, std::move(assoc), params.multi_rate);
  sol.converged = scg.feasible;
  if (params.k >= 2) apply_kconn(sc, params, sol, /*enforce_budget=*/false);
  sol.solve_seconds = seconds_since(t0);
  return sol;
}

Solution centralized_mnu(const wlan::Scenario& sc, const CentralizedParams& params,
                         EngineContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  ctx.budgets.assign(static_cast<size_t>(ctx.engine.n_groups()), sc.load_budget());
  std::vector<int> chosen;
  if (params.pool != nullptr) {
    ctx.shards.build(ctx.engine);
    const auto mcg =
        core::parallel_mcg_cover(ctx.engine, *params.pool, ctx.shard_ws, ctx.shards,
                                 ctx.budgets, params.mnu_augment, &ctx.parallel);
    chosen = mcg.chosen;
  } else {
    const auto mcg = core::mcg_cover(ctx.engine, ctx.ws, ctx.budgets);
    chosen = mcg.chosen;
    if (params.mnu_augment) {
      ctx.group_cost.assign(static_cast<size_t>(ctx.engine.n_groups()), 0.0);
      for (const int j : chosen) {
        ctx.group_cost[static_cast<size_t>(ctx.engine.group(j))] += ctx.engine.cost(j);
      }
      util::DynBitset covered = mcg.covered;
      const auto added =
          core::mcg_augment(ctx.engine, ctx.ws, ctx.budgets, ctx.group_cost, covered);
      chosen.insert(chosen.end(), added.begin(), added.end());
    }
  }
  auto assoc = setcover::materialize(sc, ctx.engine, chosen);
  Solution sol = make_solution("MNU-C", sc, std::move(assoc), params.multi_rate);
  // MNU is the budgeted setting: secondary adoptions must respect AP budgets.
  if (params.k >= 2) apply_kconn(sc, params, sol, /*enforce_budget=*/true);
  sol.solve_seconds = seconds_since(t0);
  return sol;
}

Solution centralized_mla(const wlan::Scenario& sc, const CentralizedParams& params) {
  const auto t0 = std::chrono::steady_clock::now();
  EngineContext ctx;
  ctx.build(sc, params.multi_rate);
  Solution sol = centralized_mla(sc, params, ctx);
  sol.solve_seconds = seconds_since(t0);  // include the reduction
  return sol;
}

Solution centralized_bla(const wlan::Scenario& sc, const CentralizedParams& params,
                         const core::ScgParams& scg_params) {
  const auto t0 = std::chrono::steady_clock::now();
  EngineContext ctx;
  ctx.build(sc, params.multi_rate);
  Solution sol = centralized_bla(sc, params, scg_params, ctx);
  sol.solve_seconds = seconds_since(t0);
  return sol;
}

Solution centralized_mnu(const wlan::Scenario& sc, const CentralizedParams& params) {
  const auto t0 = std::chrono::steady_clock::now();
  EngineContext ctx;
  ctx.build(sc, params.multi_rate);
  Solution sol = centralized_mnu(sc, params, ctx);
  sol.solve_seconds = seconds_since(t0);
  return sol;
}

}  // namespace wmcast::assoc
