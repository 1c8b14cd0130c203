// Distributed convergence in action: the paper's Fig. 4 counterexample,
// played three ways through the discrete-event protocol simulator and the
// round engine:
//   1. jittered scan phases  -> decisions interleave, protocol converges
//                               (Lemma 1's regime);
//   2. synchronized phases   -> u2 and u3 decide on the same stale snapshot
//                               and swap APs forever (Fig. 4);
//   3. synchronized + locks  -> the paper's §8 fix; converges again.
//
// Run: ./distributed_convergence

#include <cstdio>

#include "wmcast/assoc/distributed.hpp"
#include "wmcast/sim/network.hpp"
#include "wmcast/util/stats.hpp"
#include "wmcast/wlan/scenario.hpp"

using namespace wmcast;

namespace {

wlan::Scenario fig4() {
  // a1 reaches u1,u2,u3 at 5,4,4 Mbps; a2 reaches u2,u3,u4 at 4,4,5.
  // Everyone wants the same 1 Mbps stream.
  const std::vector<std::vector<double>> link = {{5, 4, 4, 0}, {0, 4, 4, 5}};
  return wlan::Scenario::from_link_rates(link, {0, 0, 0, 0}, {1.0}, 1.0);
}

void show_trace(const sim::SimOutcome& out, int max_lines) {
  int shown = 0;
  for (const auto& t : out.trace) {
    if (shown++ >= max_lines) {
      std::printf("    ... (%zu more re-associations)\n", out.trace.size() - shown + 1);
      break;
    }
    const std::string from =
        t.from_ap == wlan::kNoAp ? "--" : "a" + std::to_string(t.from_ap + 1);
    std::printf("    t=%7.3fs  u%d: %s -> a%d\n", t.time_s, t.user + 1, from.c_str(),
                t.to_ap + 1);
  }
}

}  // namespace

int main() {
  const auto sc = fig4();
  const wlan::Association bad_start{{0, 0, 1, 1}};  // u1,u2 on a1; u3,u4 on a2

  std::printf("Fig. 4 network: a1 reaches {u1,u2,u3}, a2 reaches {u2,u3,u4};\n");
  std::printf("all users stream the same 1 Mbps session.\n");
  std::printf("start: u1,u2 -> a1; u3,u4 -> a2 (total load 1/2)\n\n");

  {
    std::printf("1) jittered scan phases (desynchronized decisions)\n");
    sim::SimConfig cfg;
    cfg.phase_jitter_s = 1.0;
    cfg.max_time_s = 60.0;
    sim::ProtocolSim psim(sc, cfg, util::Rng(7));
    psim.set_initial(bad_start);
    const auto out = psim.run();
    show_trace(out, 6);
    const auto rep = wlan::compute_loads(sc, out.assoc);
    std::printf("    converged: %s after %.3fs; total load %.3f (= 9/20, the fixed "
                "point)\n\n",
                out.converged ? "yes" : "NO", out.last_change_s, rep.total_load);
  }

  {
    std::printf("2) synchronized scan phases (the paper's Fig. 4 hazard)\n");
    sim::SimConfig cfg;
    cfg.phase_jitter_s = 0.0;
    cfg.max_time_s = 12.0;
    sim::ProtocolSim psim(sc, cfg, util::Rng(7));
    psim.set_initial(bad_start);
    const auto out = psim.run();
    show_trace(out, 8);
    std::printf("    converged: %s — u2 and u3 keep swapping on stale snapshots;\n"
                "    %lld re-associations in %.0fs of simulated time\n\n",
                out.converged ? "yes" : "NO",
                static_cast<long long>(out.counters.joins), out.end_time_s);
  }

  {
    std::printf("3) synchronized decisions with AP locks (the paper's §8 idea)\n");
    assoc::DistributedParams p;
    p.mode = assoc::UpdateMode::kLocked;
    p.order = util::iota_permutation(4);
    p.initial = bad_start;
    util::Rng rng(7);
    assoc::LockStats stats;
    const auto sol = assoc::distributed_associate(sc, rng, p, &stats);
    std::printf("    converged: %s in %d rounds (%lld lock grants, %lld deferrals)\n",
                sol.converged ? "yes" : "NO", sol.rounds,
                static_cast<long long>(stats.lock_grants),
                static_cast<long long>(stats.deferrals));
    std::printf("    final total load %.3f — same fixed point as the sequential run\n",
                sol.loads.total_load);
  }

  std::printf("\nFor contrast, the deterministic round engine agrees:\n");
  {
    assoc::DistributedParams p;
    p.order = util::iota_permutation(4);
    p.initial = bad_start;
    p.mode = assoc::UpdateMode::kSimultaneous;
    util::Rng r1(1);
    const auto osc = assoc::distributed_associate(sc, r1, p);
    p.mode = assoc::UpdateMode::kSequential;
    util::Rng r2(1);
    const auto seq = assoc::distributed_associate(sc, r2, p);
    std::printf("  simultaneous rounds: converged=%s   sequential rounds: "
                "converged=%s (load %.3f)\n",
                osc.converged ? "yes" : "no", seq.converged ? "yes" : "no",
                seq.loads.total_load);
  }
  return 0;
}
