// Online controller replay: the incremental re-optimization engine versus a
// cold centralized re-solve, on the same ≥20-epoch churn trace.
//
// The paper's §1 argument against naive centralized control in dynamic WLANs
// is signaling: re-solving from scratch each epoch reshuffles users whose
// situation never changed. The controller's dirty-region repair touches only
// users whose candidate-AP set, rate, or multicast group moved. This bench
// quantifies both sides:
//   * re-associations per epoch (incremental vs cold), and their ratio;
//   * solution quality: repaired total load relative to the cold optimum,
//     which must stay within the controller's degradation threshold;
//   * wall-clock per epoch for both paths.
// It finishes by validating the dumped telemetry JSON against the documented
// schema (wmcast-ctrl-telemetry/v2).
//
// Run: ./ctrl_replay [--epochs=24] [--seed=41] [--move=0.12] [--walk=40]
//                    [--zap=0.04] [--leave=0.02] [--join=0.02]
//                    [--solver=mla-c] [--threshold=0.1] [--refresh=8]
//                    [--json=out.json] [--telemetry=tele.json] [--threads=N]

#include <chrono>
#include <cmath>
#include <fstream>

#include "bench_common.hpp"
#include "wmcast/assoc/registry.hpp"
#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/trace.hpp"
#include "wmcast/util/json.hpp"

using namespace wmcast;

namespace {

struct SlotDelta {
  int changes = 0;   // any slot AP change, including joins and drops
  int handoffs = 0;  // AP -> different-AP moves (802.11 Reassociation frames)
};

SlotDelta slot_delta(const std::vector<int>& from, const std::vector<int>& to) {
  SlotDelta d;
  const size_t n = std::max(from.size(), to.size());
  for (size_t i = 0; i < n; ++i) {
    const int a = i < from.size() ? from[i] : wlan::kNoAp;
    const int b = i < to.size() ? to[i] : wlan::kNoAp;
    if (a == b) continue;
    ++d.changes;
    if (a != wlan::kNoAp && b != wlan::kNoAp) ++d.handoffs;
  }
  return d;
}

/// Checks the dumped telemetry against the documented schema; returns an
/// empty string on success, the first problem otherwise.
std::string validate_telemetry(const util::Json& j) {
  const auto* schema = j.find("schema");
  if (schema == nullptr || schema->as_string() != ctrl::kTelemetrySchema) {
    return "schema tag missing or wrong";
  }
  const auto* counters = j.find("counters");
  if (counters == nullptr) return "missing counters";
  for (const char* key : {"events_ingested", "events_applied", "events_coalesced",
                          "events_invalid", "drains", "epochs", "incremental_repairs",
                          "full_solves", "baseline_refreshes", "rollbacks",
                          "joins_admitted", "joins_rejected", "reassociations",
                          "forced_reassociations"}) {
    if (counters->find(key) == nullptr) return std::string("missing counter ") + key;
  }
  const auto* engine = counters->find("engine");
  if (engine == nullptr || engine->find("full_builds") == nullptr) {
    return "missing engine full_builds counter";
  }
  const auto* parallel = engine->find("parallel");
  if (parallel == nullptr || parallel->find("solves") == nullptr ||
      parallel->find("tasks") == nullptr || parallel->find("workers") == nullptr ||
      parallel->find("imbalance") == nullptr) {
    return "missing engine.parallel sharded-solve counters";
  }
  const auto* by_type = counters->find("events_by_type");
  if (by_type == nullptr || by_type->find("join") == nullptr ||
      by_type->find("move") == nullptr) {
    return "missing events_by_type breakdown";
  }
  const auto* gauges = j.find("gauges");
  if (gauges == nullptr) return "missing gauges";
  for (const char* key : {"users_present", "users_subscribed", "users_served",
                          "total_load", "max_load", "baseline_load"}) {
    if (gauges->find(key) == nullptr) return std::string("missing gauge ") + key;
  }
  const auto* hists = j.find("histograms");
  if (hists == nullptr) return "missing histograms";
  for (const char* key : {"dirty_region_size", "reassoc_per_epoch", "drain_seconds"}) {
    const auto* h = hists->find(key);
    if (h == nullptr) return std::string("missing histogram ") + key;
    const auto* bounds = h->find("upper_bounds");
    const auto* counts = h->find("counts");
    if (bounds == nullptr || counts == nullptr ||
        counts->size() != bounds->size() + 1) {  // + overflow bucket
      return std::string("histogram ") + key + " bounds/counts mismatch";
    }
  }
  return "";
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.reject_unknown({"seed", "threads", "epochs", "join", "leave", "move", "walk",
                       "zap", "json", "telemetry", "solver", "threshold", "min-gain", "max-reassoc", "refresh"});
  const int epochs = args.get_int("epochs", 24);
  const uint64_t seed = args.get_u64("seed", 41);

  ctrl::TraceParams tp;
  tp.epochs = epochs;
  // Pedestrian mobility: ~1.5 m/s over a tens-of-seconds epoch ≈ a 20 m
  // random-walk step for the users that move at all.
  tp.move_fraction = args.get_double("move", 0.12);
  tp.walk_sigma_m = args.get_double("walk", 20.0);
  tp.zap_fraction = args.get_double("zap", 0.03);
  tp.leave_fraction = args.get_double("leave", 0.015);
  tp.join_fraction = args.get_double("join", 0.015);

  ctrl::ControllerConfig cfg;
  cfg.full_solver = args.get("solver", "mla-c");
  cfg.degradation_threshold = args.get_double("threshold", 0.10);
  cfg.full_refresh_epochs = args.get_int("refresh", 8);
  cfg.max_reassoc_per_epoch = args.get_int("max-reassoc", -1);
  cfg.polish_min_gain = args.get_double("min-gain", cfg.polish_min_gain);
  cfg.seed = seed + 2;
  cfg.threads = bench::thread_count(args);

  bench::print_header("Online controller: incremental repair vs cold re-solve", args,
                      epochs, seed, 1.0);
  std::printf("100 APs / 300 users / 5 sessions; per epoch: %.0f%% random-walk "
              "(sigma %.0f m),\n%.0f%% zap, %.0f%% leave, %.0f%% join; solver %s, "
              "threshold %.0f%%, refresh %d\n\n",
              100 * tp.move_fraction, tp.walk_sigma_m, 100 * tp.zap_fraction,
              100 * tp.leave_fraction, 100 * tp.join_fraction, cfg.full_solver.c_str(),
              100 * cfg.degradation_threshold, cfg.full_refresh_epochs);

  wlan::GeneratorParams p;
  p.n_aps = 100;
  p.n_users = 300;
  util::Rng rng(seed);
  const auto sc = wlan::generate_scenario(p, rng);

  ctrl::AssociationController controller(sc, cfg);
  util::Rng trace_rng = rng.fork();
  const auto trace = ctrl::generate_churn_trace(controller.state(), tp, trace_rng);

  // The cold path evolves an identical state and re-solves from scratch every
  // epoch with the same centralized algorithm.
  auto cold_state = ctrl::NetworkState::from_scenario(sc);
  util::Rng cold_rng(seed + 3);
  assoc::SolveOptions cold_opt;
  cold_opt.multi_rate = cfg.multi_rate;
  auto cold_sc = cold_state.to_scenario();
  auto cold_sol = assoc::solve_by_name(cfg.full_solver, cold_sc, cold_rng, cold_opt);
  auto cold_slot_ap = cold_sol.assoc.user_ap;  // user s of the scenario is slot s

  util::RunningStat inc_signal, cold_signal, inc_total, cold_total;
  util::RunningStat inc_load, cold_load, load_gap_pct, inc_time, cold_time;
  util::Table t({"epoch", "events", "dirty", "inc_handoff", "cold_handoff",
                 "inc_load", "cold_load", "gap"});
  for (int e = 0; e < trace.n_epochs(); ++e) {
    const auto& evs = trace.epochs[static_cast<size_t>(e)];

    controller.submit(evs);
    const auto rep = controller.drain();

    const auto c0 = std::chrono::steady_clock::now();
    for (const auto& ev : evs) cold_state.apply(ev);
    cold_sc = cold_state.to_scenario();
    cold_sol = assoc::solve_by_name(cfg.full_solver, cold_sc, cold_rng, cold_opt);
    const SlotDelta cold_d = slot_delta(cold_slot_ap, cold_sol.assoc.user_ap);
    cold_slot_ap = cold_sol.assoc.user_ap;
    const double cold_secs = seconds_since(c0);

    inc_signal.add(rep.handoffs);
    cold_signal.add(cold_d.handoffs);
    inc_total.add(rep.reassociations);
    cold_total.add(cold_d.changes);
    inc_load.add(rep.total_load);
    cold_load.add(cold_sol.loads.total_load);
    load_gap_pct.add(util::percent_gain(rep.total_load, cold_sol.loads.total_load));
    inc_time.add(rep.drain_seconds);
    cold_time.add(cold_secs);

    t.add_row({std::to_string(e), std::to_string(rep.events),
               std::to_string(rep.dirty_users), std::to_string(rep.handoffs),
               std::to_string(cold_d.handoffs), util::fmt(rep.total_load, 2),
               util::fmt(cold_sol.loads.total_load, 2),
               util::fmt(util::percent_gain(rep.total_load, cold_sol.loads.total_load),
                         1) + "%"});
  }
  t.print();

  // With no incremental handoff there is no ratio to report: the target is
  // met exactly when the cold leg made at least one.
  const bool inc_handoffs = inc_signal.mean() > 0.0;
  const double ratio = inc_handoffs ? cold_signal.mean() / inc_signal.mean() : 0.0;
  const double gap = load_gap_pct.mean();
  const bool signal_ok = inc_handoffs ? ratio >= 5.0 : cold_signal.mean() > 0.0;
  const bool quality_ok = gap <= 100.0 * cfg.degradation_threshold;

  std::printf("\naverages over %d epochs:\n", trace.n_epochs());
  std::printf("  re-associations (handoffs) per epoch: incremental %.1f vs cold %.1f ",
              inc_signal.mean(), cold_signal.mean());
  if (inc_handoffs) {
    std::printf("(%.1fx fewer)\n", ratio);
  } else {
    std::printf("(no incremental handoff)\n");
  }
  std::printf("  all association changes per epoch (incl. joins/leaves): "
              "incremental %.1f vs cold %.1f\n", inc_total.mean(), cold_total.mean());
  std::printf("  total load: incremental %.2f vs cold %.2f (gap %+.1f%%, "
              "threshold %.0f%%)\n", inc_load.mean(), cold_load.mean(), gap,
              100.0 * cfg.degradation_threshold);
  std::printf("  epoch wall-clock: incremental %.1f ms vs cold %.1f ms\n",
              1e3 * inc_time.mean(), 1e3 * cold_time.mean());
  std::printf("  signaling target (>=5x fewer): %s; quality target (within "
              "threshold): %s\n", signal_ok ? "MET" : "NOT MET",
              quality_ok ? "MET" : "NOT MET");

  // Engine accounting from telemetry: every MLA-C full solve builds its
  // engine from the epoch's scenario.
  const ctrl::Telemetry& ct = controller.telemetry();
  std::printf("  engine: %llu full build(s)\n",
              static_cast<unsigned long long>(ct.engine_full_builds.value()));

  // Telemetry dump + schema validation.
  const auto tele = controller.telemetry().to_json();
  const auto reparsed = util::Json::parse(tele.dump(2));
  const std::string problem = validate_telemetry(reparsed);
  std::printf("  telemetry schema %s: %s\n", ctrl::kTelemetrySchema,
              problem.empty() ? "valid" : problem.c_str());
  const std::string tele_out = args.get("telemetry", "");
  if (!tele_out.empty()) {
    std::ofstream f(tele_out);
    f << tele.dump(2) << "\n";
    std::printf("  telemetry written to %s\n", tele_out.c_str());
  }

  const std::string json_out = args.get("json", "");
  if (!json_out.empty()) {
    auto j = util::Json::object();
    j.set("bench", util::Json("ctrl_replay"));
    j.set("epochs", util::Json(trace.n_epochs()));
    j.set("events", util::Json(static_cast<int64_t>(trace.n_events())));
    j.set("solver", util::Json(cfg.full_solver));
    j.set("incremental_handoffs_per_epoch", util::Json(inc_signal.mean()));
    j.set("cold_handoffs_per_epoch", util::Json(cold_signal.mean()));
    j.set("incremental_changes_per_epoch", util::Json(inc_total.mean()));
    j.set("cold_changes_per_epoch", util::Json(cold_total.mean()));
    j.set("signaling_ratio", inc_handoffs ? util::Json(ratio) : util::Json());
    j.set("incremental_mean_load", util::Json(inc_load.mean()));
    j.set("cold_mean_load", util::Json(cold_load.mean()));
    j.set("load_gap_pct", util::Json(gap));
    j.set("degradation_threshold_pct", util::Json(100.0 * cfg.degradation_threshold));
    j.set("incremental_epoch_seconds", util::Json(inc_time.mean()));
    j.set("cold_epoch_seconds", util::Json(cold_time.mean()));
    j.set("signaling_target_met", util::Json(signal_ok));
    j.set("quality_target_met", util::Json(quality_ok));
    j.set("telemetry_valid", util::Json(problem.empty()));
    auto eng = util::Json::object();
    eng.set("full_builds",
            util::Json(static_cast<int64_t>(ct.engine_full_builds.value())));
    j.set("engine", std::move(eng));
    std::ofstream f(json_out);
    f << j.dump(2) << "\n";
    std::printf("  json written to %s\n", json_out.c_str());
  }

  return (signal_ok && quality_ok && problem.empty()) ? 0 : 1;
}
