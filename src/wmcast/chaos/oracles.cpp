#include "wmcast/chaos/oracles.hpp"

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/registry.hpp"
#include "wmcast/core/engine.hpp"
#include "wmcast/core/parallel.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/core/workspace.hpp"
#include "wmcast/serve/loop.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/setcover/reference.hpp"
#include "wmcast/setcover/set_system.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/simd.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/association.hpp"

namespace wmcast::chaos {
namespace {

OracleResult ok(std::string check) { return {std::move(check), true, {}}; }

OracleResult bad(std::string check, std::string detail) {
  return {std::move(check), false, std::move(detail)};
}

std::string ids_to_text(const std::vector<int>& v) {
  std::ostringstream os;
  os << '[';
  const size_t shown = std::min<size_t>(v.size(), 16);
  for (size_t i = 0; i < shown; ++i) os << (i ? " " : "") << v[i];
  if (v.size() > shown) os << " ...+" << v.size() - shown;
  os << ']';
  return os.str();
}

/// First index where the two id sequences disagree, formatted for a detail.
std::string seq_diff(const std::vector<int>& a, const std::vector<int>& b) {
  std::ostringstream os;
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  os << "diverge at index " << i << ": engine " << ids_to_text(a) << " vs reference "
     << ids_to_text(b);
  return os.str();
}

bool near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

std::string failures_to_text(const std::vector<OracleResult>& results) {
  std::string out;
  for (const auto& r : results) {
    if (r.pass) continue;
    out += r.check;
    out += ": ";
    out += r.detail;
    out += '\n';
  }
  return out;
}

std::vector<OracleResult> check_solver_equivalence(const wlan::Scenario& sc) {
  std::vector<OracleResult> out;
  const auto sys = setcover::build_set_system(sc, /*multi_rate=*/true);
  const auto eng = setcover::to_engine(sys);
  core::SolveWorkspace ws;

  // Greedy CostSC: the engine's lazy-heap greedy must reproduce the eager
  // reference pick for pick (ties broken by the shared better_pick rule).
  {
    const auto a = core::greedy_cover(eng, ws);
    const auto b = setcover::greedy_set_cover_reference(sys);
    if (a.chosen != b.chosen) {
      out.push_back(bad("greedy.chosen", seq_diff(a.chosen, b.chosen)));
    } else if (a.total_cost != b.total_cost || a.complete != b.complete ||
               a.covered.count() != b.covered.count()) {
      std::ostringstream os;
      os << "same chosen, different result: cost " << a.total_cost << " vs "
         << b.total_cost << ", complete " << a.complete << " vs " << b.complete
         << ", covered " << a.covered.count() << " vs " << b.covered.count();
      out.push_back(bad("greedy.result", os.str()));
    } else {
      out.push_back(ok("greedy"));
    }

    // Sharded greedy vs the joint solve: same chosen *set* (order interleaves
    // across shards), identical coverage, same total cost.
    core::SessionShards shards;
    shards.build(eng);
    util::ThreadPool pool(2);
    core::ShardWorkspaces wss;
    auto p = core::parallel_greedy_cover(eng, pool, wss, shards);
    auto sorted_p = p.chosen;
    auto sorted_a = a.chosen;
    std::sort(sorted_p.begin(), sorted_p.end());
    std::sort(sorted_a.begin(), sorted_a.end());
    if (sorted_p != sorted_a || !(p.covered == a.covered)) {
      out.push_back(bad("greedy.sharded", seq_diff(sorted_p, sorted_a)));
    } else if (!near(p.total_cost, a.total_cost)) {
      std::ostringstream os;
      os << "sharded cost " << p.total_cost << " vs joint " << a.total_cost;
      out.push_back(bad("greedy.sharded_cost", os.str()));
    } else {
      out.push_back(ok("greedy.sharded"));
    }
  }

  // MCG with per-AP budgets at the scenario's load budget.
  {
    const std::vector<double> budgets(static_cast<size_t>(sys.n_groups()),
                                      sc.load_budget());
    const auto a = core::mcg_cover(eng, ws, budgets);
    const auto b = setcover::mcg_greedy_reference(sys, budgets);
    if (a.h != b.h) {
      out.push_back(bad("mcg.h", seq_diff(a.h, b.h)));
    } else if (a.violator != b.violator) {
      out.push_back(bad("mcg.violators", "same h, different budget-violation marks"));
    } else if (a.chosen != b.chosen || a.covered.count() != b.covered.count()) {
      out.push_back(bad("mcg.chosen", seq_diff(a.chosen, b.chosen)));
    } else {
      out.push_back(ok("mcg"));
    }
  }

  // SCG: same B* search grid on both sides, so the trajectory must match
  // exactly — chosen sets, feasibility, B*, and the winning pass count.
  {
    const auto a = core::scg_cover(eng, ws, core::ScgParams{});
    const auto b = setcover::scg_solve_reference(sys, core::ScgParams{});
    if (a.chosen != b.chosen) {
      out.push_back(bad("scg.chosen", seq_diff(a.chosen, b.chosen)));
    } else if (a.feasible != b.feasible || a.bstar != b.bstar ||
               a.passes != b.passes || !near(a.max_group_cost, b.max_group_cost)) {
      std::ostringstream os;
      os << "same chosen, different result: feasible " << a.feasible << " vs "
         << b.feasible << ", bstar " << a.bstar << " vs " << b.bstar << ", passes "
         << a.passes << " vs " << b.passes << ", max_group_cost "
         << a.max_group_cost << " vs " << b.max_group_cost;
      out.push_back(bad("scg.result", os.str()));
    } else {
      out.push_back(ok("scg"));
    }
  }

  return out;
}

std::vector<OracleResult> check_simd_vs_scalar(const wlan::Scenario& sc) {
  std::vector<OracleResult> out;
  struct Snapshot {
    core::CoverResult greedy;
    core::McgResult mcg;
    core::ScgResult scg;
  };
  const auto solve_all = [&sc] {
    Snapshot s;
    const auto sys = setcover::build_set_system(sc, /*multi_rate=*/true);
    const auto eng = setcover::to_engine(sys);
    core::SolveWorkspace ws;
    s.greedy = core::greedy_cover(eng, ws);
    const std::vector<double> budgets(static_cast<size_t>(sys.n_groups()),
                                      sc.load_budget());
    s.mcg = core::mcg_cover(eng, ws, budgets);
    s.scg = core::scg_cover(eng, ws, core::ScgParams{});
    return s;
  };

  Snapshot scalar;
  {
    simd::ScopedMode force(simd::Mode::kScalar);
    scalar = solve_all();
  }
  const Snapshot dispatched = solve_all();

  if (scalar.greedy.chosen != dispatched.greedy.chosen ||
      !(scalar.greedy.covered == dispatched.greedy.covered) ||
      scalar.greedy.total_cost != dispatched.greedy.total_cost ||
      scalar.greedy.complete != dispatched.greedy.complete) {
    out.push_back(bad("simd.greedy",
                      seq_diff(dispatched.greedy.chosen, scalar.greedy.chosen)));
  } else {
    out.push_back(ok("simd.greedy"));
  }

  if (scalar.mcg.h != dispatched.mcg.h ||
      scalar.mcg.chosen != dispatched.mcg.chosen ||
      !(scalar.mcg.covered == dispatched.mcg.covered)) {
    out.push_back(bad("simd.mcg", seq_diff(dispatched.mcg.chosen, scalar.mcg.chosen)));
  } else {
    out.push_back(ok("simd.mcg"));
  }

  if (scalar.scg.chosen != dispatched.scg.chosen ||
      scalar.scg.bstar != dispatched.scg.bstar ||
      scalar.scg.passes != dispatched.scg.passes ||
      !(scalar.scg.covered == dispatched.scg.covered)) {
    out.push_back(bad("simd.scg", seq_diff(dispatched.scg.chosen, scalar.scg.chosen)));
  } else {
    out.push_back(ok("simd.scg"));
  }

  return out;
}

std::vector<OracleResult> check_controller_invariants(
    const ctrl::AssociationController& c, int expected_epochs) {
  std::vector<OracleResult> out;
  const auto& st = c.state();
  const auto& slot_ap = c.slot_ap();

  if (c.epochs() != expected_epochs) {
    std::ostringstream os;
    os << "controller reports " << c.epochs() << " epochs after " << expected_epochs
       << " drains";
    out.push_back(bad("invariant.epochs", os.str()));
  } else {
    out.push_back(ok("invariant.epochs"));
  }

  if (static_cast<int>(slot_ap.size()) != st.n_slots()) {
    std::ostringstream os;
    os << "slot_ap has " << slot_ap.size() << " entries for " << st.n_slots()
       << " slots";
    out.push_back(bad("invariant.slot_space", os.str()));
    return out;  // the remaining checks index slot_ap by slot id
  }
  out.push_back(ok("invariant.slot_space"));

  // Association sanity: a served user wants service, its AP id is real, and
  // the AP can actually reach it. No check that every service-wanting user is
  // served — MCG/admission may legitimately leave users uncovered.
  bool assoc_ok = true;
  for (int i = 0; i < st.n_slots() && assoc_ok; ++i) {
    const int ap = slot_ap[static_cast<size_t>(i)];
    if (ap == wlan::kNoAp) continue;
    std::ostringstream os;
    if (ap < 0 || ap >= st.n_aps()) {
      os << "slot " << i << " assigned to nonexistent AP " << ap;
    } else if (!st.slot(i).wants_service()) {
      os << "slot " << i << " served by AP " << ap << " but does not want service";
    } else if (st.link_rate(ap, i) <= 0.0) {
      os << "slot " << i << " served by out-of-range AP " << ap;
    } else {
      continue;
    }
    out.push_back(bad("invariant.association", os.str()));
    assoc_ok = false;
  }
  if (assoc_ok) out.push_back(ok("invariant.association"));

  // Load-report consistency: the committed report must equal a fresh
  // recomputation from the committed association. Assumes the controller runs
  // the default multi-rate model (true for every chaos campaign config).
  if (assoc_ok) {
    const auto fresh = wlan::compute_loads(c.scenario(), wlan::Association{slot_ap},
                                           /*multi_rate=*/true);
    const auto& live = c.loads();
    if (live.ap_load != fresh.ap_load || live.total_load != fresh.total_load ||
        live.max_load != fresh.max_load ||
        live.satisfied_users != fresh.satisfied_users ||
        live.budget_violations != fresh.budget_violations) {
      std::ostringstream os;
      os << "committed report (total " << live.total_load << ", max " << live.max_load
         << ", satisfied " << live.satisfied_users << ", violations "
         << live.budget_violations << ") != recomputed (total " << fresh.total_load
         << ", max " << fresh.max_load << ", satisfied " << fresh.satisfied_users
         << ", violations " << fresh.budget_violations << ")";
      out.push_back(bad("invariant.loads", os.str()));
    } else {
      out.push_back(ok("invariant.loads"));
    }
  }

  return out;
}

std::vector<OracleResult> check_telemetry_conservation(
    const ctrl::AssociationController& c) {
  std::vector<OracleResult> out;
  const auto& t = c.telemetry();
  const uint64_t ingested = t.events_ingested.value();
  const uint64_t applied = t.events_applied.value();
  const uint64_t invalid = t.events_invalid.value();

  auto expect = [&out](bool cond, const char* check, std::string detail) {
    out.push_back(cond ? ok(check) : bad(check, std::move(detail)));
  };

  {
    std::ostringstream os;
    os << "ingested " << ingested << " != applied " << applied << " + invalid "
       << invalid;
    expect(ingested == applied + invalid, "telemetry.event_conservation", os.str());
  }
  {
    uint64_t by_type = 0;
    for (const auto& counter : t.events_by_type) by_type += counter.value();
    std::ostringstream os;
    os << "per-type counts sum to " << by_type << ", ingested " << ingested;
    expect(by_type == ingested, "telemetry.by_type_sum", os.str());
  }
  {
    const uint64_t joins =
        t.events_by_type[static_cast<size_t>(ctrl::EventType::kUserJoin)].value();
    const uint64_t gated = t.joins_admitted.value() + t.joins_rejected.value();
    std::ostringstream os;
    os << "admitted+rejected " << gated << " exceeds join events " << joins;
    expect(gated <= joins, "telemetry.join_gate", os.str());
  }
  {
    std::ostringstream os;
    os << "coalesced " << t.events_coalesced.value() << " exceeds applied " << applied;
    expect(t.events_coalesced.value() <= applied, "telemetry.coalesced", os.str());
  }
  {
    std::ostringstream os;
    os << "drains " << t.drains.value() << " != committed epochs " << t.epochs.value();
    expect(t.drains.value() == t.epochs.value(), "telemetry.drains", os.str());
  }
  {
    const uint64_t reassoc = t.reassociations.value();
    std::ostringstream os;
    os << "handoffs " << t.handoffs.value() << " / forced "
       << t.forced_reassociations.value() << " exceed reassociations " << reassoc;
    expect(t.handoffs.value() <= reassoc && t.forced_reassociations.value() <= reassoc,
           "telemetry.reassociation_split", os.str());
  }
  return out;
}

ReplayCheckResult check_differential_replay(const wlan::Scenario& sc,
                                            const ctrl::EventTrace& trace,
                                            const ctrl::ControllerConfig& cfg,
                                            int n_threads) {
  ReplayCheckResult out;
  ctrl::ControllerConfig serial_cfg = cfg;
  serial_cfg.threads = 1;
  ctrl::ControllerConfig parallel_cfg = cfg;
  parallel_cfg.threads = n_threads;

  ctrl::AssociationController serial(sc, serial_cfg);
  ctrl::AssociationController parallel(sc, parallel_cfg);

  bool invariants_clean = true;
  for (size_t ep = 0; ep < trace.epochs.size(); ++ep) {
    serial.submit(trace.epochs[ep]);
    parallel.submit(trace.epochs[ep]);
    serial.drain();
    parallel.drain();
    ++out.epochs_run;

    if (serial.slot_ap() != parallel.slot_ap()) {
      out.diverged = true;
      out.divergence_epoch = static_cast<int>(ep);
      std::ostringstream os;
      os << "epoch " << ep << ": committed association differs between threads=1 and threads="
         << n_threads;
      out.results.push_back(bad("replay.thread_determinism", os.str()));
      break;
    }
    for (auto& r : check_controller_invariants(serial, out.epochs_run)) {
      if (!r.pass) {
        r.detail = "epoch " + std::to_string(ep) + ": " + r.detail;
        out.results.push_back(std::move(r));
        invariants_clean = false;
      }
    }
  }
  if (!out.diverged) out.results.push_back(ok("replay.thread_determinism"));
  if (invariants_clean) out.results.push_back(ok("replay.invariants"));

  for (auto& r : check_telemetry_conservation(serial)) out.results.push_back(std::move(r));

  // Incremental repair vs a cold full re-solve of the final state. The
  // controller's own fallback ladder bounds drift against its (possibly
  // stale) baseline, so allow the configured threshold plus slack for
  // baseline staleness between refreshes.
  if (!out.diverged && serial.state().n_active() > 0) {
    util::Rng rng(cfg.seed);
    assoc::SolveOptions opt;
    opt.multi_rate = cfg.multi_rate;
    const auto cold = assoc::solve_by_name(cfg.full_solver, serial.scenario(), rng, opt);
    const double live = serial.loads().total_load;
    const double bound =
        cold.loads.total_load * (1.0 + cfg.degradation_threshold + 0.25) + 1e-9;
    if (cold.loads.total_load > 0.0 && live > bound) {
      std::ostringstream os;
      os << "final total load " << live << " exceeds cold re-solve "
         << cold.loads.total_load << " by more than the degradation bound " << bound;
      out.results.push_back(bad("replay.bounded_degradation", os.str()));
    } else {
      out.results.push_back(ok("replay.bounded_degradation"));
    }
  }
  return out;
}

std::vector<OracleResult> check_serve_coalescing(const wlan::Scenario& sc,
                                                 const ctrl::EventTrace& trace,
                                                 const ctrl::ControllerConfig& cfg) {
  std::vector<OracleResult> out;

  serve::ServeConfig base;
  base.batch_max = 64;
  base.staleness_s = 0.02;
  base.queue_cap = 0;  // unbounded: both sides must accept the identical stream
  base.modeled_service = true;

  ctrl::AssociationController with(sc, cfg);
  ctrl::AssociationController without(sc, cfg);
  serve::ServeConfig with_cfg = base;
  with_cfg.coalesce = true;
  serve::ServeConfig without_cfg = base;
  without_cfg.coalesce = false;
  serve::ServeLoop loop_with(&with, with_cfg);
  serve::ServeLoop loop_without(&without, without_cfg);

  // Epoch e maps to virtual window [e, e+1) * epoch_s, events spread evenly.
  const double epoch_s = 0.05;
  for (size_t e = 0; e < trace.epochs.size(); ++e) {
    const auto& evs = trace.epochs[e];
    for (size_t i = 0; i < evs.size(); ++i) {
      const double t = (static_cast<double>(e) +
                        static_cast<double>(i + 1) / static_cast<double>(evs.size() + 1)) *
                       epoch_s;
      loop_with.offer(t, evs[i]);
      loop_without.offer(t, evs[i]);
    }
  }
  const serve::ServeTelemetry& tw =
      loop_with.finish(static_cast<double>(trace.n_epochs()) * epoch_s);
  const serve::ServeTelemetry& to =
      loop_without.finish(static_cast<double>(trace.n_epochs()) * epoch_s);

  if (!(with.state() == without.state())) {
    std::ostringstream os;
    os << "final NetworkState differs with coalescing on (" << with.state().n_slots()
       << " slots, " << with.state().n_active() << " active) vs off ("
       << without.state().n_slots() << " slots, " << without.state().n_active()
       << " active)";
    out.push_back(bad("serve.coalesce_equivalence", os.str()));
  } else {
    out.push_back(ok("serve.coalesce_equivalence"));
  }

  const auto conserve = [&out](const char* check, const serve::ServeTelemetry& t) {
    const uint64_t offered = t.offered.value();
    const uint64_t accepted = t.accepted.value();
    const uint64_t handled = t.submitted.value() + t.coalesced.value() + t.shed.value();
    if (offered != accepted + t.rejected.value() || accepted != handled) {
      std::ostringstream os;
      os << "offered " << offered << ", accepted " << accepted << ", rejected "
         << t.rejected.value() << ", submitted " << t.submitted.value() << ", coalesced "
         << t.coalesced.value() << ", shed " << t.shed.value();
      out.push_back(bad(check, os.str()));
    } else {
      out.push_back(ok(check));
    }
  };
  conserve("serve.conservation_coalesced", tw);
  conserve("serve.conservation_plain", to);

  bool invariants_clean = true;
  for (auto& r : check_controller_invariants(with, with.epochs())) {
    if (!r.pass) {
      r.check = "serve." + r.check;
      out.push_back(std::move(r));
      invariants_clean = false;
    }
  }
  if (invariants_clean) out.push_back(ok("serve.invariants"));
  return out;
}

std::vector<OracleResult> check_serve_repair_parallel(const wlan::Scenario& sc,
                                                      const ctrl::EventTrace& trace,
                                                      const ctrl::ControllerConfig& cfg,
                                                      int n_threads) {
  std::vector<OracleResult> out;

  serve::ServeConfig base;
  base.batch_max = 64;
  base.staleness_s = 0.02;
  base.queue_cap = 0;  // unbounded: both sides must accept the identical stream
  base.modeled_service = true;

  ctrl::ControllerConfig seq_cfg = cfg;
  seq_cfg.threads = 1;
  ctrl::ControllerConfig par_cfg = cfg;
  par_cfg.threads = n_threads;
  ctrl::AssociationController seq(sc, seq_cfg);
  ctrl::AssociationController par(sc, par_cfg);
  serve::ServeConfig seq_scfg = base;
  seq_scfg.pipeline = false;
  serve::ServeConfig par_scfg = base;
  par_scfg.pipeline = true;
  serve::ServeLoop loop_seq(&seq, seq_scfg);
  serve::ServeLoop loop_par(&par, par_scfg);

  // Epoch e maps to virtual window [e, e+1) * epoch_s, events spread evenly
  // (same timeline as check_serve_coalescing).
  const double epoch_s = 0.05;
  for (size_t e = 0; e < trace.epochs.size(); ++e) {
    const auto& evs = trace.epochs[e];
    for (size_t i = 0; i < evs.size(); ++i) {
      const double t = (static_cast<double>(e) +
                        static_cast<double>(i + 1) / static_cast<double>(evs.size() + 1)) *
                       epoch_s;
      loop_seq.offer(t, evs[i]);
      loop_par.offer(t, evs[i]);
    }
  }
  const double end = static_cast<double>(trace.n_epochs()) * epoch_s;
  const serve::ServeTelemetry& ts = loop_seq.finish(end);
  const serve::ServeTelemetry& tp = loop_par.finish(end);

  if (!(seq.state() == par.state()) || seq.slot_ap() != par.slot_ap()) {
    std::ostringstream os;
    os << "threads=1/pipeline=off vs threads=" << n_threads
       << "/pipeline=on committed different results: slot_ap "
       << seq_diff(seq.slot_ap(), par.slot_ap());
    out.push_back(bad("serve.repair_parallel_equivalence", os.str()));
  } else {
    out.push_back(ok("serve.repair_parallel_equivalence"));
  }

  // Bitwise, not near(): the sharded merge reduces loads in deterministic
  // component order, so even the FP rounding must match the threads=1 run.
  if (seq.loads().total_load != par.loads().total_load ||
      seq.loads().max_load != par.loads().max_load) {
    std::ostringstream os;
    os << "loads differ: total " << seq.loads().total_load << " vs "
       << par.loads().total_load << ", max " << seq.loads().max_load << " vs "
       << par.loads().max_load;
    out.push_back(bad("serve.repair_parallel_loads", os.str()));
  } else {
    out.push_back(ok("serve.repair_parallel_loads"));
  }

  // Serve telemetry with wall excluded is a pure function of (workload,
  // config); the pipeline and the shard partition must not leak into it.
  const std::string js = ts.to_json(/*include_wall=*/false).dump();
  const std::string jp = tp.to_json(/*include_wall=*/false).dump();
  if (js != jp) {
    size_t i = 0;
    while (i < js.size() && i < jp.size() && js[i] == jp[i]) ++i;
    std::ostringstream os;
    os << "serve telemetry JSON diverges at byte " << i << ": ..."
       << js.substr(i > 20 ? i - 20 : 0, 60) << "... vs ..."
       << jp.substr(i > 20 ? i - 20 : 0, 60) << "...";
    out.push_back(bad("serve.repair_parallel_telemetry", os.str()));
  } else {
    out.push_back(ok("serve.repair_parallel_telemetry"));
  }

  bool invariants_clean = true;
  for (auto& r : check_controller_invariants(par, par.epochs())) {
    if (!r.pass) {
      r.check = "serve.repair_parallel_" + r.check;
      out.push_back(std::move(r));
      invariants_clean = false;
    }
  }
  if (invariants_clean) out.push_back(ok("serve.repair_parallel_invariants"));
  return out;
}

namespace {

/// Structural invariants of a k-connectivity overlay against its primary
/// association: returns the first violation (empty = clean).
std::string kconn_overlay_error(const wlan::Scenario& sc, const assoc::Solution& sol,
                                int k) {
  std::ostringstream os;
  for (int u = 0; u < sc.n_users(); ++u) {
    const auto& sv = sol.multi.aps_of(u);
    const int primary = sol.assoc.ap_of(u);
    if (primary == wlan::kNoAp) {
      if (!sv.empty()) {
        os << "user " << u << ": base-unserved but overlay serves it";
        return os.str();
      }
      continue;
    }
    if (!std::binary_search(sv.begin(), sv.end(), primary)) {
      os << "user " << u << ": served-set misses primary AP " << primary;
      return os.str();
    }
    for (size_t i = 0; i < sv.size(); ++i) {
      if (i > 0 && sv[i] <= sv[i - 1]) {
        os << "user " << u << ": served-set not sorted/duplicate-free";
        return os.str();
      }
      if (!(sc.link_rate(sv[i], u) > 0.0)) {
        os << "user " << u << ": served by AP " << sv[i] << " out of radio range";
        return os.str();
      }
    }
    const int cap = std::min(k, static_cast<int>(sc.aps_of_user(u).size()));
    if (static_cast<int>(sv.size()) > cap) {
      os << "user " << u << ": served-set size " << sv.size() << " exceeds min(k, heard) = "
         << cap;
      return os.str();
    }
  }
  return {};
}

}  // namespace

std::vector<OracleResult> check_kconn_k1_identity(const wlan::Scenario& sc) {
  std::vector<OracleResult> out;
  static const char* kSolvers[] = {"ssa", "mla-c", "bla-c", "mnu-c", "local-search"};
  for (const char* name : kSolvers) {
    const std::string check = std::string("kconn.k1_identity/") + name;
    util::Rng r1(4242);
    util::Rng r2(4242);
    assoc::SolveOptions o1;
    o1.k = 1;
    assoc::SolveOptions o2;
    o2.k = 2;
    const auto s1 = assoc::solve_by_name(name, sc, r1, o1);
    const auto s2 = assoc::solve_by_name(name, sc, r2, o2);
    if (s1.k != 1 || !s1.multi.user_aps.empty()) {
      out.push_back(bad(check, "k=1 run carries a non-empty overlay"));
      continue;
    }
    if (!(s1.assoc == s2.assoc)) {
      out.push_back(bad(check, "k=2 primary association differs from the k=1 run"));
      continue;
    }
    if (s1.loads.ap_load != s2.loads.ap_load ||
        s1.loads.total_load != s2.loads.total_load ||
        s1.loads.max_load != s2.loads.max_load ||
        s1.loads.satisfied_users != s2.loads.satisfied_users) {
      out.push_back(bad(check, "k=2 primary load report differs from the k=1 run"));
      continue;
    }
    std::string err = kconn_overlay_error(sc, s2, 2);
    if (err.empty() && s2.multi_loads.satisfied_users != s2.loads.satisfied_users) {
      err = "overlay changed the served-user count";
    }
    if (err.empty()) {
      const auto fresh = wlan::compute_multi_loads(sc, s2.multi, true);
      if (fresh.ap_load != s2.multi_loads.ap_load ||
          fresh.effective_rate != s2.multi_loads.effective_rate ||
          fresh.total_load != s2.multi_loads.total_load) {
        err = "multi load report does not match a fresh recomputation";
      }
    }
    if (err.empty() && std::string(name) == "mnu-c" &&
        s2.multi_loads.budget_violations > s2.loads.budget_violations) {
      err = "budgeted augmentation added budget violations";
    }
    if (err.empty()) {
      out.push_back(ok(check));
    } else {
      out.push_back(bad(check, err));
    }
  }
  return out;
}

std::vector<OracleResult> check_kconn_parallel(const wlan::Scenario& sc,
                                               const ctrl::EventTrace& trace,
                                               const ctrl::ControllerConfig& cfg,
                                               int n_threads) {
  std::vector<OracleResult> out;

  // (a) Sharded-vs-joint: the k=2 served-sets must be independent of the
  // base solve's sharding (the serial augmentation sees the same base and
  // the same engine either way).
  {
    util::ThreadPool pool(n_threads);
    assoc::CentralizedParams joint;
    joint.k = 2;
    joint.multi_rate = cfg.multi_rate;
    assoc::CentralizedParams sharded = joint;
    sharded.pool = &pool;
    const auto sj = assoc::centralized_mla(sc, joint);
    const auto sp = assoc::centralized_mla(sc, sharded);
    if (!(sj.multi == sp.multi)) {
      out.push_back(bad("kconn.sharded_vs_joint",
                        "k=2 served-sets differ between the joint and sharded MLA solves"));
    } else {
      out.push_back(ok("kconn.sharded_vs_joint"));
    }
  }

  // (b) Controller threads 1-vs-N at k=2: the committed primary association
  // AND the maintained overlay must match after every epoch.
  ctrl::ControllerConfig c1 = cfg;
  c1.k = 2;
  c1.threads = 1;
  ctrl::ControllerConfig cn = cfg;
  cn.k = 2;
  cn.threads = n_threads;
  ctrl::AssociationController serial(sc, c1);
  ctrl::AssociationController parallel(sc, cn);
  bool diverged = false;
  for (size_t ep = 0; ep <= trace.epochs.size() && !diverged; ++ep) {
    if (ep > 0) {
      serial.submit(trace.epochs[ep - 1]);
      parallel.submit(trace.epochs[ep - 1]);
      serial.drain();
      parallel.drain();
    }
    std::ostringstream os;
    if (serial.slot_ap() != parallel.slot_ap()) {
      os << "epoch " << ep << ": committed association differs between threads=1 and threads="
         << n_threads << " at k=2";
      diverged = true;
    } else if (!(serial.multi_assoc() == parallel.multi_assoc())) {
      os << "epoch " << ep << ": k=2 served-sets differ between threads=1 and threads="
         << n_threads;
      diverged = true;
    } else if (serial.multi_loads().effective_rate != parallel.multi_loads().effective_rate) {
      os << "epoch " << ep << ": k=2 effective rates differ between threads=1 and threads="
         << n_threads;
      diverged = true;
    }
    if (diverged) out.push_back(bad("kconn.threads_equivalence", os.str()));
  }
  if (!diverged) out.push_back(ok("kconn.threads_equivalence"));
  return out;
}

namespace {

/// Bitwise diff of a controller's maintained overlay against a cold
/// re-derivation from its own committed state (empty = identical).
std::string kconn_cold_diff(const ctrl::AssociationController& c,
                            const ctrl::ControllerConfig& cfg) {
  const wlan::Scenario& sc = c.scenario();
  assoc::KconnParams kp;
  kp.k = c.k();
  kp.multi_rate = cfg.multi_rate;
  kp.enforce_budget = true;  // as the controller does
  const auto cold =
      assoc::augment_to_k(sc, wlan::Association{c.slot_ap()}, c.loads(), kp);
  if (!(cold == c.multi_assoc())) {
    return "maintained served-sets differ from a cold augment_to_k re-derivation";
  }
  const auto loads = wlan::compute_multi_loads(sc, cold, kp.multi_rate);
  const auto& m = c.multi_loads();
  if (loads.tx_rate != m.tx_rate || loads.ap_load != m.ap_load ||
      loads.effective_rate != m.effective_rate ||
      loads.total_load != m.total_load || loads.max_load != m.max_load ||
      loads.mean_effective_rate != m.mean_effective_rate ||
      loads.satisfied_users != m.satisfied_users ||
      loads.multi_served_users != m.multi_served_users ||
      loads.budget_violations != m.budget_violations) {
    return "maintained multi-load report differs bitwise from compute_multi_loads";
  }
  return {};
}

}  // namespace

std::vector<OracleResult> check_kconn_incremental(const wlan::Scenario& sc,
                                                  const ctrl::EventTrace& trace,
                                                  const ctrl::ControllerConfig& cfg,
                                                  int n_threads) {
  std::vector<OracleResult> out;

  // (a) Per-epoch incremental-vs-cold + threads 1-vs-N at k=2. The cold side
  // is re-derived from each controller's own committed state, so any drift
  // is the incremental engine's.
  ctrl::ControllerConfig c1 = cfg;
  c1.k = std::max(2, cfg.k);
  c1.threads = 1;
  ctrl::ControllerConfig cn = c1;
  cn.threads = n_threads;
  ctrl::AssociationController inc1(sc, c1);
  ctrl::AssociationController incn(sc, cn);
  bool diverged = false;
  for (size_t ep = 0; ep <= trace.epochs.size() && !diverged; ++ep) {
    if (ep > 0) {
      inc1.submit(trace.epochs[ep - 1]);
      incn.submit(trace.epochs[ep - 1]);
      inc1.drain();
      incn.drain();
    }
    std::ostringstream os;
    std::string err = kconn_cold_diff(inc1, c1);
    if (!err.empty()) {
      os << "epoch " << ep << " (threads=1): " << err;
      diverged = true;
    } else if (!(err = kconn_cold_diff(incn, cn)).empty()) {
      os << "epoch " << ep << " (threads=" << n_threads << "): " << err;
      diverged = true;
    } else if (!(inc1.multi_assoc() == incn.multi_assoc()) ||
               inc1.multi_loads().effective_rate !=
                   incn.multi_loads().effective_rate) {
      os << "epoch " << ep << ": incremental overlays differ between threads=1 and threads="
         << n_threads;
      diverged = true;
    }
    if (diverged) out.push_back(bad("kconn.incremental_vs_cold", os.str()));
  }
  if (!diverged) out.push_back(ok("kconn.incremental_vs_cold"));

  // The dirty-region accounting must be a pure function of the applied
  // deltas, never of the pool schedule.
  const ctrl::Telemetry& t1 = inc1.telemetry();
  const ctrl::Telemetry& tn = incn.telemetry();
  if (t1.engine_kconn_repairs.value() != tn.engine_kconn_repairs.value() ||
      t1.engine_kconn_repaired_users.value() !=
          tn.engine_kconn_repaired_users.value() ||
      t1.engine_kconn_carried_users.value() !=
          tn.engine_kconn_carried_users.value() ||
      t1.engine_kconn_rebuilds.value() != tn.engine_kconn_rebuilds.value()) {
    std::ostringstream os;
    os << "engine.kconn counters differ between threads=1 and threads=" << n_threads
       << ": repairs " << t1.engine_kconn_repairs.value() << " vs "
       << tn.engine_kconn_repairs.value() << ", repaired_users "
       << t1.engine_kconn_repaired_users.value() << " vs "
       << tn.engine_kconn_repaired_users.value();
    out.push_back(bad("kconn.incremental_counters", os.str()));
  } else {
    out.push_back(ok("kconn.incremental_counters"));
  }

  // (b) Full serve stacks at k=2: threads=1/pipeline=off vs
  // threads=N/pipeline=on must byte-agree on state, overlay and telemetry.
  serve::ServeConfig sbase;
  sbase.batch_max = 64;
  sbase.staleness_s = 0.02;
  sbase.queue_cap = 0;  // unbounded: both sides accept the identical stream
  sbase.modeled_service = true;
  ctrl::AssociationController seq(sc, c1);
  ctrl::AssociationController par(sc, cn);
  serve::ServeConfig seq_scfg = sbase;
  seq_scfg.pipeline = false;
  serve::ServeConfig par_scfg = sbase;
  par_scfg.pipeline = true;
  serve::ServeLoop loop_seq(&seq, seq_scfg);
  serve::ServeLoop loop_par(&par, par_scfg);
  const double epoch_s = 0.05;
  for (size_t e = 0; e < trace.epochs.size(); ++e) {
    const auto& evs = trace.epochs[e];
    for (size_t i = 0; i < evs.size(); ++i) {
      const double t = (static_cast<double>(e) +
                        static_cast<double>(i + 1) / static_cast<double>(evs.size() + 1)) *
                       epoch_s;
      loop_seq.offer(t, evs[i]);
      loop_par.offer(t, evs[i]);
    }
  }
  const double end = static_cast<double>(trace.n_epochs()) * epoch_s;
  const serve::ServeTelemetry& ts = loop_seq.finish(end);
  const serve::ServeTelemetry& tp = loop_par.finish(end);

  if (!(seq.state() == par.state()) || seq.slot_ap() != par.slot_ap() ||
      !(seq.multi_assoc() == par.multi_assoc()) ||
      seq.multi_loads().effective_rate != par.multi_loads().effective_rate) {
    std::ostringstream os;
    os << "k=2 serve stacks committed different results (threads=1/pipeline=off vs threads="
       << n_threads << "/pipeline=on): slot_ap "
       << seq_diff(seq.slot_ap(), par.slot_ap());
    out.push_back(bad("kconn.serve_parallel_equivalence", os.str()));
  } else {
    out.push_back(ok("kconn.serve_parallel_equivalence"));
  }

  const std::string js = ts.to_json(/*include_wall=*/false).dump();
  const std::string jp = tp.to_json(/*include_wall=*/false).dump();
  if (js != jp) {
    size_t i = 0;
    while (i < js.size() && i < jp.size() && js[i] == jp[i]) ++i;
    std::ostringstream os;
    os << "k=2 serve telemetry JSON diverges at byte " << i << ": ..."
       << js.substr(i > 20 ? i - 20 : 0, 60) << "... vs ..."
       << jp.substr(i > 20 ? i - 20 : 0, 60) << "...";
    out.push_back(bad("kconn.serve_parallel_telemetry", os.str()));
  } else {
    out.push_back(ok("kconn.serve_parallel_telemetry"));
  }
  return out;
}

}  // namespace wmcast::chaos
