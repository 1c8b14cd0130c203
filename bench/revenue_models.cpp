// Revenue-model experiment (paper §1/§3.2): each objective is motivated by a
// revenue model — MNU by pay-per-view, BLA by concave ("convex" in the
// paper's wording) unicast revenue, MLA by flat per-byte pricing. This bench
// evaluates every algorithm under all three models and shows each algorithm
// winning (or tying) under the model that motivates it. Also compares the
// CostSC greedy against the layering algorithm the paper's §6.1 points to.
//
// Run: ./revenue_models [--scenarios=20] [--seed=61] [--rate=1.0]

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/assoc/revenue.hpp"
#include "wmcast/assoc/ssa.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/setcover/materialize.hpp"
#include "wmcast/setcover/reduction.hpp"

using namespace wmcast;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.reject_unknown({"scenarios", "rate", "seed", "threads"});
  const int scenarios = args.get_int("scenarios", 20);
  const uint64_t seed = args.get_u64("seed", 61);
  const double rate = args.get_double("rate", 1.0);

  bench::print_header("Revenue models: each objective wins under its motivation",
                      args, scenarios, seed, rate);

  // Contended setting so MNU matters: modest budget, dense users.
  wlan::GeneratorParams p;
  p.n_aps = 60;
  p.n_users = 240;
  p.n_sessions = 6;
  p.area_side_m = 600.0;
  p.session_rate_mbps = rate;
  p.load_budget = 0.10;

  // --- Pay-per-view: the contended regime, budget enforced. Only the
  // budget-respecting algorithms compete (BLA/MLA assume demand fits and
  // would "win" here only by violating the budget).
  {
    std::printf("(1) pay-per-view revenue, budget %.2f enforced\n", p.load_budget);
    struct Algo {
      const char* name;
      util::RunningStat ppv;
      int infeasible = 0;
    };
    Algo algos[] = {{"SSA", {}, 0}, {"MNU-C", {}, 0}, {"MNU-D", {}, 0}};
    util::Rng master(seed);
    for (int s = 0; s < scenarios; ++s) {
      util::Rng srng = master.fork();
      const auto sc = wlan::generate_scenario(p, srng);
      util::Rng r1 = master.fork();
      util::Rng r2 = master.fork();
      const assoc::Solution sols[] = {assoc::ssa_associate(sc, r1),
                                      assoc::centralized_mnu(sc),
                                      assoc::distributed_mnu(sc, r2)};
      for (size_t k = 0; k < std::size(sols); ++k) {
        algos[k].ppv.add(assoc::compute_revenue(sc, sols[k].loads).pay_per_view);
        if (!sols[k].loads.within_budget()) ++algos[k].infeasible;
      }
    }
    util::Table t({"algorithm", "pay_per_view", "budget_violations"});
    for (const auto& a : algos) {
      t.add_row({a.name, util::fmt(a.ppv.mean(), 1), std::to_string(a.infeasible)});
    }
    t.print();
    std::printf("\n");
  }

  // --- Unicast revenue models: a loaded network (budget 0.9, everyone
  // served). The winner between BLA and MLA depends on how concave the
  // unicast revenue curve is: near-linear curves reward total-load
  // minimization (MLA), strongly concave ones reward balance (BLA) — the
  // dependence §3.2's revenue discussion predicts.
  {
    std::printf("(2) unicast revenue models, budget 0.90, heavier streams "
                "(2x rate, 8 sessions)\n");
    struct Algo {
      const char* name;
      util::RunningStat convex_mild, convex_strong, per_byte;
    };
    Algo algos[] = {{"SSA", {}, {}, {}},
                    {"BLA-C", {}, {}, {}},
                    {"MLA-C", {}, {}, {}},
                    {"BLA-D", {}, {}, {}},
                    {"MLA-D", {}, {}, {}}};
    auto loose = p;
    loose.load_budget = 0.9;
    loose.n_aps = 40;
    loose.n_sessions = 8;
    loose.session_rate_mbps = 2.0 * rate;
    assoc::RevenueModel mild;
    mild.unicast_concavity = 8.0;
    assoc::RevenueModel strong;
    strong.unicast_concavity = 400.0;
    util::Rng master(seed);
    for (int s = 0; s < scenarios; ++s) {
      util::Rng srng = master.fork();
      const auto sc = wlan::generate_scenario(loose, srng);
      util::Rng r1 = master.fork();
      util::Rng r2 = master.fork();
      util::Rng r3 = master.fork();
      const assoc::Solution sols[] = {
          assoc::ssa_associate(sc, r1), assoc::centralized_bla(sc),
          assoc::centralized_mla(sc),   assoc::distributed_bla(sc, r2),
          assoc::distributed_mla(sc, r3)};
      for (size_t k = 0; k < std::size(sols); ++k) {
        algos[k].convex_mild.add(
            assoc::compute_revenue(sc, sols[k].loads, mild).convex_unicast);
        algos[k].convex_strong.add(
            assoc::compute_revenue(sc, sols[k].loads, strong).convex_unicast);
        algos[k].per_byte.add(
            assoc::compute_revenue(sc, sols[k].loads, mild).per_byte);
      }
    }
    util::Table t({"algorithm", "convex_k8", "convex_k400", "per_byte"});
    for (const auto& a : algos) {
      t.add_row({a.name, util::fmt(a.convex_mild.mean(), 3),
                 util::fmt(a.convex_strong.mean(), 3), util::fmt(a.per_byte.mean(), 3)});
    }
    t.print();
    std::printf("(§3.2's pairing: MNU wins table 1; MLA tops per_byte and the\n"
                " near-linear k=8 curve; under strong diminishing returns\n"
                " (k=400) the balanced BLA loads take the lead)\n\n");
  }

  // CostSC greedy vs the §6.1 layering algorithm on the MLA objective.
  std::printf("CostSC greedy vs layering algorithm (MLA objective, budget 0.9)\n");
  util::Table t2({"metric", "CostSC", "layering"});
  util::RunningStat g_cost, l_cost, freq;
  util::Rng master2(seed);
  for (int s = 0; s < scenarios; ++s) {
    util::Rng srng = master2.fork();
    auto sc = wlan::generate_scenario(p, srng).with_budget(0.9);
    const auto sys = setcover::build_set_system(sc);
    const core::CoverageEngine eng = setcover::to_engine(sys);
    core::SolveWorkspace ws;
    const auto greedy = core::greedy_cover(eng, ws);
    const auto layered = core::layered_cover(eng, ws);
    const auto g_assoc = setcover::materialize(sc, sys, greedy.chosen);
    const auto l_assoc = setcover::materialize(sc, sys, layered.chosen);
    g_cost.add(wlan::compute_loads(sc, g_assoc).total_load);
    l_cost.add(wlan::compute_loads(sc, l_assoc).total_load);
    freq.add(core::max_element_frequency(eng));
  }
  t2.add_row({"total load (avg)", util::fmt(g_cost.mean(), 2), util::fmt(l_cost.mean(), 2)});
  t2.add_row({"guarantee factor", "ln n + 1", "f = " + util::fmt(freq.mean(), 1)});
  t2.print();
  std::printf("(the greedy usually wins in practice; layering's f-factor bound\n"
              " is the better *guarantee* when users hear few APs — §6.1)\n");
  return 0;
}
