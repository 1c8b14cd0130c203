// Ablation 2 (ours): the paper's §8 future-work directions, quantified.
//   (a) Distributed convergence: sequential vs synchronized-simultaneous vs
//       lock-coordinated rounds (convergence rate and rounds to converge).
//   (b) Explicit interference: effective busy fraction under 3 channels
//       (802.11b/g) vs 12 channels (802.11a), SSA vs BLA-C.
//   (c) Adaptive power control: interference-footprint shrink at equal load
//       (keep-rate) and the extra shrink allowed by the load budget.
//   (d) SCG budget policy: carried-over budgets (our default) vs the paper's
//       fresh-per-pass budgets, on the BLA objective.
//
// Run: ./ablation_extensions [--scenarios=20] [--seed=22] [--rate=1.0]

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/assoc/ssa.hpp"
#include "wmcast/ext/interference.hpp"
#include "wmcast/ext/interference_aware.hpp"
#include "wmcast/ext/power_control.hpp"

using namespace wmcast;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.reject_unknown({"scenarios", "rate", "seed", "threads"});
  util::ThreadPool pool(bench::thread_count(args));
  const int scenarios = args.get_int("scenarios", 20);
  const uint64_t seed = args.get_u64("seed", 22);
  const double rate = args.get_double("rate", 1.0);

  bench::print_header("Ablation: §8 extensions (convergence, interference, power)",
                      args, scenarios, seed, rate);

  wlan::GeneratorParams base;
  base.n_aps = 100;
  base.n_users = 200;
  base.session_rate_mbps = rate;

  // (a) convergence modes.
  {
    std::printf("(a) distributed update modes (100 APs, 200 users, MLA objective)\n");
    util::Table t({"mode", "converged_pct", "rounds_avg", "total_load_avg"});
    struct Row {
      std::string name;
      int converged = 0;
      util::RunningStat rounds, load;
    };
    std::vector<Row> rows(3);
    rows[0].name = "sequential";
    rows[1].name = "simultaneous";
    rows[2].name = "lock-coordinated";
    util::Rng master(seed);
    for (int s = 0; s < scenarios; ++s) {
      util::Rng srng = master.fork();
      const auto sc = wlan::generate_scenario(base, srng);
      const auto order = util::iota_permutation(sc.n_users());

      assoc::DistributedParams p;
      p.order = order;
      util::Rng r1 = master.fork();
      const auto seq = assoc::distributed_associate(sc, r1, p);
      rows[0].converged += seq.converged;
      rows[0].rounds.add(seq.rounds);
      rows[0].load.add(seq.loads.total_load);

      p.mode = assoc::UpdateMode::kSimultaneous;
      util::Rng r2 = master.fork();
      const auto sim = assoc::distributed_associate(sc, r2, p);
      rows[1].converged += sim.converged;
      rows[1].rounds.add(sim.rounds);
      rows[1].load.add(sim.loads.total_load);

      p.mode = assoc::UpdateMode::kLocked;
      util::Rng r3 = master.fork();
      const auto lock = assoc::distributed_associate(sc, r3, p);
      rows[2].converged += lock.converged;
      rows[2].rounds.add(lock.rounds);
      rows[2].load.add(lock.loads.total_load);
    }
    for (const auto& r : rows) {
      t.add_row({r.name, util::fmt(100.0 * r.converged / scenarios, 0),
                 util::fmt(r.rounds.mean(), 1), util::fmt(r.load.mean())});
    }
    t.print();
    std::printf("takeaway: locks make synchronized decisions safe (the paper's\n"
                "proposed fix) and match sequential quality, but serialize dense\n"
                "neighborhoods — one winner per contended AP group per round, so\n"
                "round counts grow accordingly.\n\n");
  }

  // (b) interference channels.
  {
    std::printf("(b) effective busy fraction (own + same-channel neighbor load),\n"
                "    interference range 400 m\n");
    util::Table t({"channels", "SSA_max_eff", "BLA-C_max_eff", "reduction_pct"});
    for (const int channels : {1, 3, 6, 12}) {
      util::RunningStat ssa_eff, bla_eff;
      util::Rng master(seed);
      for (int s = 0; s < scenarios; ++s) {
        util::Rng srng = master.fork();
        const auto sc = wlan::generate_scenario(base, srng);
        const auto adj = ext::build_conflict_graph(sc, 400.0);
        const auto ch = ext::assign_channels(adj, channels);
        util::Rng arng = master.fork();
        const auto ssa = assoc::ssa_associate(sc, arng);
        const auto bla = assoc::centralized_bla(sc);
        ssa_eff.add(ext::interference_report(sc, ssa.loads, ch, adj).max_effective_load);
        bla_eff.add(ext::interference_report(sc, bla.loads, ch, adj).max_effective_load);
      }
      t.add_row({std::to_string(channels), util::fmt(ssa_eff.mean()),
                 util::fmt(bla_eff.mean()),
                 util::fmt(util::percent_reduction(bla_eff.mean(), ssa_eff.mean()), 1)});
    }
    t.print();
    std::printf("takeaway: BLA's balancing implicitly reduces interference (the\n"
                "paper's §3.2 note), and the advantage persists even with the 3\n"
                "channels of 802.11b/g.\n\n");
  }

  // (c) power control.
  {
    std::printf("(c) adaptive power control on the BLA-C association,\n"
                "    power scales {0.5, 0.65, 0.8, 1.0}\n");
    util::Table t({"mode", "footprint_km2_before", "footprint_km2_after", "shrink_pct",
                   "load_increase_pct"});
    const std::vector<double> scales = {0.5, 0.65, 0.8, 1.0};
    for (const bool keep_rate : {true, false}) {
      util::RunningStat before, after, load_up;
      util::Rng master(seed);
      for (int s = 0; s < scenarios; ++s) {
        util::Rng srng = master.fork();
        const auto sc = wlan::generate_scenario(base, srng);
        const auto sol = assoc::centralized_bla(sc);
        const auto rep = ext::shrink_powers(sc, sol.assoc, wlan::RateTable::ieee80211a(),
                                            scales, keep_rate);
        before.add(rep.footprint_before_m2 / 1e6);
        after.add(rep.footprint_after_m2 / 1e6);
        load_up.add(util::percent_gain(rep.loads_after.total_load, sol.loads.total_load));
      }
      t.add_row({keep_rate ? "keep-rate" : "allow-rate-drop", util::fmt(before.mean(), 2),
                 util::fmt(after.mean(), 2),
                 util::fmt(util::percent_reduction(after.mean(), before.mean()), 1),
                 util::fmt(load_up.mean(), 1)});
    }
    t.print();
    std::printf("takeaway: discrete power levels shrink the interference footprint\n"
                "substantially — for free when the rate is pinned, and further if\n"
                "the budget absorbs a rate drop (the paper's §8 direction).\n\n");
  }

  // (d) SCG budget policy.
  {
    std::printf("(d) SCG budget policy: carry-over (default) vs the paper's\n"
                "    fresh-per-pass budgets, max AP load (200 APs)\n");
    const std::vector<bench::Algo> algos = {
        {"carry",
         [](const wlan::Scenario& sc, util::Rng&) {
           return assoc::centralized_bla(sc).loads.max_load;
         }},
        {"fresh",
         [](const wlan::Scenario& sc, util::Rng&) {
           core::ScgParams sp;
           sp.carry_budgets = false;
           return assoc::centralized_bla(sc, {}, sp).loads.max_load;
         }},
    };
    util::Table t(bench::summary_headers("users", algos));
    for (const int users : {100, 200, 400}) {
      wlan::GeneratorParams p;
      p.n_aps = 200;
      p.n_users = users;
      p.session_rate_mbps = rate;
      t.add_row(bench::summary_row(std::to_string(users),
                                   bench::sweep_point(p, scenarios, seed, algos, &pool)));
    }
    t.print();
    std::printf("takeaway: carrying group budgets across the SCG passes lets the\n"
                "B* search bound the final max load directly and dominates the\n"
                "literal fresh-per-pass scheme.\n\n");
  }

  // (e) interference-aware distributed association: scoring effective loads
  // (own + same-channel neighbors) instead of raw loads.
  {
    std::printf("(e) interference-aware distributed BLA vs interference-blind,\n"
                "    max effective busy fraction (single shared channel)\n");
    util::Table t({"users", "blind_max_eff", "aware_max_eff", "reduction_pct"});
    for (const int users : {100, 200}) {
      util::RunningStat blind_eff, aware_eff;
      util::Rng master(seed);
      for (int s = 0; s < scenarios; ++s) {
        wlan::GeneratorParams p;
        p.n_aps = 60;
        p.n_users = users;
        p.area_side_m = 600.0;
        p.session_rate_mbps = rate;
        util::Rng srng = master.fork();
        const auto sc = wlan::generate_scenario(p, srng);
        const auto adj = ext::build_conflict_graph(sc, 400.0);
        ext::ChannelAssignment one_channel;
        one_channel.channel_of_ap.assign(static_cast<size_t>(sc.n_aps()), 0);

        util::Rng r1 = master.fork();
        const auto blind = assoc::distributed_bla(sc, r1);
        ext::InterferenceAwareParams ip;
        ip.objective = assoc::Objective::kLoadVector;
        util::Rng r2 = master.fork();
        const auto aware = ext::interference_aware_associate(sc, adj, r2, ip);

        blind_eff.add(
            ext::interference_report(sc, blind.loads, one_channel, adj).max_effective_load);
        aware_eff.add(
            ext::interference_report(sc, aware.loads, one_channel, adj).max_effective_load);
      }
      t.add_row({std::to_string(users), util::fmt(blind_eff.mean()),
                 util::fmt(aware_eff.mean()),
                 util::fmt(util::percent_reduction(aware_eff.mean(), blind_eff.mean()), 1)});
    }
    t.print();
    std::printf("takeaway: making the distributed rule score effective loads (the\n"
                "§8 'explicit interference modeling' direction) cuts the worst\n"
                "on-air busy fraction beyond what load balancing alone achieves.\n");
  }
  return 0;
}
