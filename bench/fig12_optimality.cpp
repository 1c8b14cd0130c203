// Figure 12 reproduction: optimality evaluation on small networks (30 APs,
// 600 m x 600 m, 10..50 users). The paper solved ILPs; we use exact
// branch-and-bound solvers (see DESIGN.md substitution table).
//   (a) total AP load:        MLA-C / MLA-D / SSA vs OPT
//   (b) maximum AP load:      BLA-C / BLA-D / SSA vs OPT
//   (c) unsatisfied users:    MNU-C / MNU-D / SSA vs OPT, budget 0.042
//
// Paper's reference points: MLA-C/MLA-D 25%/22.2% above OPT at 30 users;
// BLA-C/BLA-D 12%/22.6% above OPT at 40 users; max unsatisfied for MNU-C/
// MNU-D 5/8 at 50 users vs 1 for OPT.
//
// Run: ./fig12_optimality [--scenarios=40] [--seed=12] [--rate=1.0]
//                         [--budget_c=0.042] [--time_limit=5.0] [--csv=prefix]

#include <atomic>

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/assoc/ssa.hpp"
#include "wmcast/exact/exact_bla.hpp"
#include "wmcast/exact/exact_mla.hpp"
#include "wmcast/exact/exact_mnu.hpp"
#include "wmcast/setcover/reduction.hpp"

using namespace wmcast;

namespace {

// Exact runs that hit a limit (reported at the end). The exact_* helpers run
// on bench::sweep_point's pool workers, so the count is atomic.
std::atomic<int> g_truncated{0};

exact::BbLimits g_limits;

double exact_mla_total(const wlan::Scenario& sc) {
  const auto sys = setcover::build_set_system(sc);
  const auto res = exact::exact_min_cost_cover(sys, g_limits);
  if (res.status != exact::BbStatus::kOptimal) ++g_truncated;
  return res.cost;
}

double exact_bla_max(const wlan::Scenario& sc) {
  const auto sys = setcover::build_set_system(sc);
  const auto res = exact::exact_min_max_cover(sys, g_limits);
  if (res.status != exact::BbStatus::kOptimal) ++g_truncated;
  return res.max_group_cost;
}

double exact_mnu_unsatisfied(const wlan::Scenario& sc) {
  const auto sys = setcover::build_set_system(sc);
  const auto res = exact::exact_max_coverage_uniform(sys, sc.load_budget(), g_limits);
  if (res.status != exact::BbStatus::kOptimal) ++g_truncated;
  return sc.n_users() - res.covered;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.reject_unknown({"scenarios", "rate", "csv", "seed", "threads", "budget_c", "time_limit"});
  util::ThreadPool pool(bench::thread_count(args));
  const int scenarios = args.get_int("scenarios", 40);
  const uint64_t seed = args.get_u64("seed", 12);
  const double rate = args.get_double("rate", 1.0);
  const double budget_c = args.get_double("budget_c", 0.042);
  g_limits.time_limit_s = args.get_double("time_limit", 5.0);

  bench::print_header(
      "Figure 12: optimality of MLA/BLA/MNU on small networks\n"
      "30 APs, 600 m x 600 m, 5 sessions; exact B&B in place of the paper's ILP",
      args, scenarios, seed, rate);

  const std::vector<int> user_counts = {10, 20, 30, 40, 50};

  // (a) total AP load vs OPT.
  {
    const std::vector<bench::Algo> algos = {
        {"SSA",
         [](const wlan::Scenario& sc, util::Rng& rng) {
           return assoc::ssa_associate(sc, rng).loads.total_load;
         }},
        {"MLA-C",
         [](const wlan::Scenario& sc, util::Rng&) {
           return assoc::centralized_mla(sc).loads.total_load;
         }},
        {"MLA-D",
         [](const wlan::Scenario& sc, util::Rng& rng) {
           return assoc::distributed_mla(sc, rng).loads.total_load;
         }},
        {"OPT", [](const wlan::Scenario& sc, util::Rng&) { return exact_mla_total(sc); }},
    };
    util::Table t(bench::summary_headers("users", algos));
    std::vector<util::Summary> at30;
    for (const int users : user_counts) {
      auto p = wlan::fig12_params(users);
      p.session_rate_mbps = rate;
      const auto sums = bench::sweep_point(p, scenarios, seed, algos, &pool);
      t.add_row(bench::summary_row(std::to_string(users), sums));
      if (users == 30) at30 = sums;
    }
    std::printf("(a) total AP load vs OPT\n");
    t.print();
    if (!at30.empty() && at30[3].avg > 0) {
      std::printf("at 30 users: MLA-C %.1f%% above OPT (paper: 25%%), "
                  "MLA-D %.1f%% above OPT (paper: 22.2%%)\n\n",
                  util::percent_gain(at30[1].avg, at30[3].avg),
                  util::percent_gain(at30[2].avg, at30[3].avg));
    }
    if (args.has("csv")) t.write_csv(args.get("csv", "") + "_a.csv");
  }

  // (b) maximum AP load vs OPT.
  {
    const std::vector<bench::Algo> algos = {
        {"SSA",
         [](const wlan::Scenario& sc, util::Rng& rng) {
           return assoc::ssa_associate(sc, rng).loads.max_load;
         }},
        {"BLA-C",
         [](const wlan::Scenario& sc, util::Rng&) {
           return assoc::centralized_bla(sc).loads.max_load;
         }},
        {"BLA-D",
         [](const wlan::Scenario& sc, util::Rng& rng) {
           return assoc::distributed_bla(sc, rng).loads.max_load;
         }},
        {"OPT", [](const wlan::Scenario& sc, util::Rng&) { return exact_bla_max(sc); }},
    };
    util::Table t(bench::summary_headers("users", algos));
    std::vector<util::Summary> at40;
    for (const int users : user_counts) {
      auto p = wlan::fig12_params(users);
      p.session_rate_mbps = rate;
      const auto sums = bench::sweep_point(p, scenarios, seed, algos, &pool);
      t.add_row(bench::summary_row(std::to_string(users), sums));
      if (users == 40) at40 = sums;
    }
    std::printf("(b) maximum AP load vs OPT\n");
    t.print();
    if (!at40.empty() && at40[3].avg > 0) {
      std::printf("at 40 users: BLA-C %.1f%% above OPT (paper: 12%%), "
                  "BLA-D %.1f%% above OPT (paper: 22.6%%)\n\n",
                  util::percent_gain(at40[1].avg, at40[3].avg),
                  util::percent_gain(at40[2].avg, at40[3].avg));
    }
    if (args.has("csv")) t.write_csv(args.get("csv", "") + "_b.csv");
  }

  // (c) unsatisfied users at a tight budget vs OPT.
  {
    const std::vector<bench::Algo> algos = {
        {"SSA",
         [](const wlan::Scenario& sc, util::Rng& rng) {
           return static_cast<double>(sc.n_users() -
                                      assoc::ssa_associate(sc, rng).loads.satisfied_users);
         }},
        {"MNU-C",
         [](const wlan::Scenario& sc, util::Rng&) {
           return static_cast<double>(sc.n_users() -
                                      assoc::centralized_mnu(sc).loads.satisfied_users);
         }},
        {"MNU-D",
         [](const wlan::Scenario& sc, util::Rng& rng) {
           return static_cast<double>(sc.n_users() -
                                      assoc::distributed_mnu(sc, rng).loads.satisfied_users);
         }},
        {"OPT",
         [](const wlan::Scenario& sc, util::Rng&) { return exact_mnu_unsatisfied(sc); }},
    };
    util::Table t(bench::summary_headers("users", algos));
    for (const int users : user_counts) {
      auto p = wlan::fig12_params(users);
      p.session_rate_mbps = rate;
      p.load_budget = budget_c;
      t.add_row(bench::summary_row(std::to_string(users),
                                   bench::sweep_point(p, scenarios, seed, algos, &pool), 1));
    }
    std::printf("(c) unsatisfied users (budget %.3f) vs OPT\n", budget_c);
    t.print();
    if (args.has("csv")) t.write_csv(args.get("csv", "") + "_c.csv");
  }

  if (g_truncated > 0) {
    std::printf("\nWARNING: %d exact runs hit the %.1fs time limit; their rows are\n"
                "upper bounds (incumbents), not proven optima.\n",
                g_truncated.load(), g_limits.time_limit_s);
  } else {
    std::printf("\nall exact runs proved optimality within the time limit.\n");
  }
  return 0;
}
