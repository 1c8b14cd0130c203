// wmcast benchmark driver: runs one workload of the benchmark (see
// perfbench/README.md) against the wlan, core, assoc, ctrl and serve modules,
// checks their outputs, and prints one JSON document on its last stdout line.
//
// Run: wmcast_perfbench --workload=NAME --seed=N --seconds=S [--trace=0|1]
//                       [--trace-out=FILE]
//
// Phases, in order (each untimed input is generated before its phase):
//   setup       Scenario::from_geometry (+ AssociationController + ServeLoop
//               constructors), repeated kSetupReps times; median = setup_s
//   plan        cold centralized_mla at k=2 and cold centralized_mnu,
//               WorkloadSpec::plan_reps pairs in two groups: interleaved
//               with the set-ups, and after saturation; medians =
//               plan_mla_s and plan_mnu_s
//   fixed rate  the open-loop stream through the ServeLoop at its fixed rate
//               (virtual arrival clock, measured service): latency_p50/p99
//   saturation  WorkloadSpec::saturation_rounds rounds of kSaturationChunk
//               events stamped 1 us apart, each through a fresh ServeLoop
//               with an unbounded queue: capacity_eps = events / wall time
// With --trace=1 the same phases run with spans on, followed by two probe
// passes that time single layer calls: the planning layers one by one, and
// a controller fed the fixed-rate stream in benchmark-made batches with the
// public calls of an epoch timed after each drain.
//
// Exit status: 0 = every output check passed, 1 = a check failed (the
// document is still printed), 2 = bad arguments.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/kconn.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/state.hpp"
#include "wmcast/serve/loop.hpp"
#include "wmcast/serve/workload.hpp"
#include "wmcast/util/cli.hpp"
#include "wmcast/util/json.hpp"
#include "wmcast/util/stats.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/association.hpp"

using namespace wmcast;
using perfbench::now_seconds;
using perfbench::Tracer;

namespace {

constexpr int kSetupReps = 3;
constexpr int kSaturationChunk = 1024;   // 4 full batches of batch_max 256
constexpr double kCtrlBatchWindowS = 0.25;  // probe-pass batching window
constexpr int kCtrlBatchMax = 256;

double median(std::vector<double> v) { return util::percentile(std::move(v), 50.0); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KB
}

/// Everything the run reports: metrics by name with units, output checks,
/// attempted/failed operation counts and free-form run information.
struct Report {
  util::Json e2e = util::Json::object();
  util::Json layers = util::Json::object();
  util::Json checks = util::Json::array();
  util::Json info = util::Json::object();
  int64_t attempted = 0;
  int64_t failed = 0;
  int failed_checks = 0;

  static void put(util::Json& into, const std::string& name, double value,
                  const std::string& unit) {
    util::Json m = util::Json::object();
    m.set("value", value);
    m.set("unit", unit);
    into.set(name, std::move(m));
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    put(e2e, name, value, unit);
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    put(layers, name, value, unit);
  }
  void check(const std::string& name, bool ok, const std::string& detail = {}) {
    util::Json c = util::Json::object();
    c.set("name", name);
    c.set("ok", ok);
    if (!detail.empty()) c.set("detail", detail);
    checks.push(std::move(c));
    if (!ok) {
      ++failed_checks;
      ++failed;
    }
  }
};

ctrl::ControllerConfig controller_config(const perfbench::ServeSpec& s, uint64_t seed) {
  ctrl::ControllerConfig cfg;
  cfg.seed = seed;
  cfg.threads = s.threads;
  cfg.k = s.k;
  // As in bench/serve_load: the serve loop owns batching, and full re-solves
  // run only when the (loosened) degradation fallback demands one, so the
  // serving fast path is what gets measured.
  cfg.max_batch = 0;
  cfg.full_refresh_epochs = 0;
  cfg.degradation_threshold = 0.5;
  return cfg;
}

serve::ServeConfig serve_config(const perfbench::ServeSpec& s) {
  serve::ServeConfig c;  // batch_max 256, staleness 50 ms, queue 8192, reject
  c.pipeline = s.pipeline;
  return c;
}

// ---------------------------------------------------------------- setup ----

struct Setup {
  std::unique_ptr<wlan::Scenario> plan_sc;  // null: plan on serve_sc
  std::unique_ptr<wlan::Scenario> serve_sc;
  std::unique_ptr<ctrl::AssociationController> controller;
  std::unique_ptr<serve::ServeLoop> loop;  // borrows controller

  const wlan::Scenario& plan() const { return plan_sc ? *plan_sc : *serve_sc; }
  void clear() {
    loop.reset();
    controller.reset();
    serve_sc.reset();
    plan_sc.reset();
  }
};

struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> scenario_s;  // summed from_geometry calls per rep
  std::vector<double> ctor_s;      // AssociationController constructor
};

std::unique_ptr<ctrl::AssociationController> make_controller(
    const wlan::Scenario& sc, const ctrl::ControllerConfig& cfg, Tracer& tr,
    std::vector<double>& ctor_s) {
  auto span = tr.span("ctrl.controller_ctor");
  const double t0 = now_seconds();
  auto c = std::make_unique<ctrl::AssociationController>(sc, cfg);
  ctor_s.push_back(now_seconds() - t0);
  return c;
}

/// One set-up: replaces `out` with freshly built objects.
void setup_once(const perfbench::WorkloadSpec& w, uint64_t seed,
                const perfbench::NetworkInputs* plan_in,
                const perfbench::NetworkInputs& serve_in, util::ThreadPool& pool,
                int rep, Tracer& tr, Setup& out, SetupTimes& times) {
  out.clear();
  // Hand the previous rep's freed pages back, so every rep (and the peak RSS
  // after it) starts from the same heap state.
  malloc_trim(0);
  auto span = tr.span("bench.setup", "setup-" + std::to_string(rep));
  const double t0 = now_seconds();
  double scen_s = 0.0;
  if (plan_in != nullptr) {
    auto s = tr.span("wlan.from_geometry");
    const double ts = now_seconds();
    out.plan_sc = std::make_unique<wlan::Scenario>(
        perfbench::build_scenario(*plan_in, &pool));
    scen_s += now_seconds() - ts;
  }
  {
    auto s = tr.span("wlan.from_geometry");
    const double ts = now_seconds();
    out.serve_sc = std::make_unique<wlan::Scenario>(
        perfbench::build_scenario(serve_in, &pool));
    scen_s += now_seconds() - ts;
  }
  out.controller = make_controller(*out.serve_sc, controller_config(w.serve, seed), tr,
                                   times.ctor_s);
  {
    auto s = tr.span("serve.loop_ctor");
    out.loop = std::make_unique<serve::ServeLoop>(out.controller.get(),
                                                  serve_config(w.serve));
  }
  times.total_s.push_back(now_seconds() - t0);
  times.scenario_s.push_back(scen_s);
}

// ----------------------------------------------------------------- plan ----

struct PlanRun {
  std::vector<double> mla_s;
  std::vector<double> mnu_s;
  assoc::Solution mla;  // last rep (every rep solves the same instance)
  assoc::Solution mnu;
};

/// One cold MLA (k = 2) and one cold MNU solve.
void plan_once(const wlan::Scenario& sc, int rep, Tracer& tr, PlanRun& r) {
  auto phase = tr.span("bench.plan", "solve-" + std::to_string(rep));
  assoc::CentralizedParams k2;
  k2.k = 2;
  double t0 = now_seconds();
  {
    auto s = tr.span("assoc.centralized_mla");
    r.mla = assoc::centralized_mla(sc, k2);
  }
  r.mla_s.push_back(now_seconds() - t0);
  t0 = now_seconds();
  {
    auto s = tr.span("assoc.centralized_mnu");
    r.mnu = assoc::centralized_mnu(sc);
  }
  r.mnu_s.push_back(now_seconds() - t0);
}

void check_plan(const wlan::Scenario& sc, const PlanRun& p, Report& rep) {
  rep.check("mla_covers_every_coverable_user",
            p.mla.loads.satisfied_users == sc.n_coverable_users(),
            std::to_string(p.mla.loads.satisfied_users) + " of " +
                std::to_string(sc.n_coverable_users()));

  const double recomputed = wlan::compute_loads(sc, p.mla.assoc).total_load;
  const double solver = p.mla.loads.total_load;
  rep.check("compute_loads_reproduces_mla_total_load",
            std::abs(recomputed - solver) <= 1e-9 * std::max(1.0, std::abs(solver)),
            util::fmt(recomputed, 9) + " vs " + util::fmt(solver, 9));

  bool sets_ok = p.mla.multi.n_users() == sc.n_users();
  int bad_user = -1;
  for (int u = 0; sets_ok && u < sc.n_users(); ++u) {
    const std::vector<int>& aps = p.mla.multi.aps_of(u);
    const int primary = p.mla.assoc.ap_of(u);
    sets_ok = static_cast<int>(aps.size()) <= 2 &&
              (primary == wlan::kNoAp ? aps.empty()
                                      : std::find(aps.begin(), aps.end(), primary) !=
                                            aps.end());
    for (const int a : aps) sets_ok = sets_ok && sc.link_rate(a, u) > 0.0;
    if (!sets_ok) bad_user = u;
  }
  rep.check("kconn_served_sets_hold_at_most_k_in_range_aps", sets_ok,
            bad_user < 0 ? "" : "user " + std::to_string(bad_user));

  double worst = 0.0;
  for (const double l : p.mnu.loads.ap_load) worst = std::max(worst, l);
  rep.check("mnu_respects_every_ap_budget",
            p.mnu.loads.budget_violations == 0 && worst <= sc.load_budget() * (1 + 1e-12),
            "max AP load " + util::fmt(worst, 6));
}

// ---------------------------------------------------------------- serve ----

serve::ServeTelemetry run_stream(serve::ServeLoop& loop,
                                 const std::vector<serve::TimedEvent>& events,
                                 double end_t_s, Tracer& tr) {
  for (const serve::TimedEvent& te : events) {
    auto s = tr.span("serve.offer");
    loop.offer(te.t_s, te.ev);
  }
  auto s = tr.span("serve.finish");
  return loop.finish(end_t_s);
}

/// Conservation laws of one ServeLoop run (all queued events are flushed by
/// finish(), so nothing is still queued).
void check_serve_telemetry(const std::string& tag, const serve::ServeTelemetry& t,
                           Report& rep) {
  const uint64_t offered = t.offered.value();
  const uint64_t accepted = t.accepted.value();
  rep.check(tag + "_offered_eq_accepted_plus_rejected",
            offered == accepted + t.rejected.value());
  rep.check(tag + "_accepted_eq_submitted_coalesced_shed",
            accepted == t.submitted.value() + t.coalesced.value() + t.shed.value());
  rep.check(tag + "_histogram_counts_equal",
            t.latency_s.count() == t.queue_wait_s.count() &&
                t.latency_s.count() == t.decision_s.count() &&
                t.latency_s.count() == accepted - t.shed.value());
  rep.attempted += static_cast<int64_t>(offered);
  rep.failed += static_cast<int64_t>(t.rejected.value() + t.shed.value());
}

struct Saturation {
  int64_t events = 0;
  std::vector<double> round_eps;  // events / wall time, per round
};

/// `rounds` rounds of kSaturationChunk events from `pool` (which must hold
/// them all), each through a fresh ServeLoop with an unbounded queue.
Saturation run_saturation(ctrl::AssociationController& controller,
                          const serve::ServeConfig& base,
                          const std::vector<serve::TimedEvent>& pool, int rounds,
                          Tracer& tr, Report& rep) {
  auto phase = tr.span("bench.saturation");
  serve::ServeConfig cfg = base;
  cfg.queue_cap = 0;  // unbounded: the backlog, not admission, absorbs the burst
  Saturation s;
  size_t next = 0;
  for (int round = 0; round < rounds; ++round) {
    const double t0 = now_seconds();
    serve::ServeTelemetry tele = [&] {
      std::unique_ptr<serve::ServeLoop> loop;
      {
        auto sp = tr.span("serve.loop_ctor");
        loop = std::make_unique<serve::ServeLoop>(&controller, cfg);
      }
      for (int i = 0; i < kSaturationChunk; ++i) {
        auto sp = tr.span("serve.offer");
        loop->offer(1e-6 * (i + 1), pool[next + static_cast<size_t>(i)].ev);
      }
      auto sp = tr.span("serve.finish");
      return loop->finish();
    }();
    s.round_eps.push_back(kSaturationChunk / (now_seconds() - t0));
    s.events += kSaturationChunk;
    next += kSaturationChunk;
    check_serve_telemetry("saturation_round" + std::to_string(round), tele, rep);
  }
  return s;
}

void check_controller_state(const ctrl::AssociationController& c, Report& rep) {
  const ctrl::NetworkState& st = c.state();
  const std::vector<int>& slot_ap = c.slot_ap();
  int bad = -1;
  for (int s = 0; s < static_cast<int>(slot_ap.size()) && bad < 0; ++s) {
    const int a = slot_ap[static_cast<size_t>(s)];
    if (a == wlan::kNoAp) continue;
    if (s >= st.n_slots() || !st.slot(s).wants_service() || st.link_rate(a, s) <= 0.0) {
      bad = s;
    }
  }
  rep.check("associated_slots_want_service_and_are_in_range", bad < 0,
            bad < 0 ? "" : "slot " + std::to_string(bad));
  const uint64_t invalid = c.telemetry().events_invalid.value();
  rep.check("controller_saw_no_invalid_events", invalid == 0, std::to_string(invalid));
  rep.failed += static_cast<int64_t>(invalid);
}

// --------------------------------------------------------- trace probes ----

void probe_plan_layers(const wlan::Scenario& sc, double budget_s, Tracer& tr,
                       Report& rep) {
  auto phase = tr.span("bench.probe_plan");
  assoc::EngineContext ctx;
  std::vector<double> build_s, greedy_s, mcg_s, warm_s, loads_ms, kconn_s;
  int64_t sets = 0, members = 0, picks = 0, multi_served = 0;
  const double start = now_seconds();
  for (int round = 0; round < 2 || now_seconds() - start < budget_s; ++round) {
    const std::string id = "layers-" + std::to_string(round);
    double t0 = now_seconds();
    {
      auto s = tr.span("core.engine_build", id);
      ctx.build(sc);
    }
    build_s.push_back(now_seconds() - t0);
    sets = ctx.engine.n_live_sets();
    members = 0;
    for (int j = 0; j < ctx.engine.n_set_slots(); ++j) {
      if (ctx.engine.alive(j)) members += ctx.engine.degree(j);
    }

    t0 = now_seconds();
    core::CoverResult greedy;
    {
      auto s = tr.span("core.greedy_cover", id);
      greedy = core::greedy_cover(ctx.engine, ctx.ws);
    }
    greedy_s.push_back(now_seconds() - t0);
    picks = static_cast<int64_t>(greedy.chosen.size());

    const std::vector<double> budgets(static_cast<size_t>(ctx.engine.n_groups()),
                                      sc.load_budget());
    t0 = now_seconds();
    {
      auto s = tr.span("core.mcg_cover", id);
      core::mcg_cover(ctx.engine, ctx.ws, budgets);
    }
    mcg_s.push_back(now_seconds() - t0);

    t0 = now_seconds();
    assoc::Solution warm;
    {
      auto s = tr.span("assoc.mla_warm", id);
      warm = assoc::centralized_mla(sc, assoc::CentralizedParams{}, ctx);
    }
    warm_s.push_back(now_seconds() - t0);

    t0 = now_seconds();
    {
      auto s = tr.span("wlan.compute_loads", id);
      wlan::compute_loads(sc, warm.assoc);
    }
    loads_ms.push_back((now_seconds() - t0) * 1e3);

    assoc::KconnParams kp;
    kp.k = 2;
    t0 = now_seconds();
    wlan::MultiAssociation multi;
    {
      auto s = tr.span("assoc.augment_to_k", id);
      multi = assoc::augment_to_k(sc, warm.assoc, warm.loads, kp);
    }
    kconn_s.push_back(now_seconds() - t0);
    multi_served = 0;
    for (int u = 0; u < multi.n_users(); ++u) multi_served += multi.aps_of(u).size() >= 2;
  }
  rep.layer("wlan.links", static_cast<double>(sc.n_links()), "count");
  rep.layer("wlan.model_bytes", static_cast<double>(sc.memory_bytes()), "bytes");
  rep.layer("wlan.loads_ms", median(loads_ms), "ms");
  rep.layer("core.engine_build_s", median(build_s), "s");
  rep.layer("core.engine_sets", static_cast<double>(sets), "count");
  rep.layer("core.engine_members", static_cast<double>(members), "count");
  rep.layer("core.greedy_s", median(greedy_s), "s");
  rep.layer("core.greedy_picks", static_cast<double>(picks), "count");
  rep.layer("core.mcg_s", median(mcg_s), "s");
  rep.layer("assoc.mla_warm_s", median(warm_s), "s");
  rep.layer("assoc.kconn_augment_s", median(kconn_s), "s");
  rep.layer("assoc.kconn_multi_served", static_cast<double>(multi_served), "count");
  rep.info.set("probe_plan_rounds", static_cast<int64_t>(build_s.size()));
}

/// Splits the stream into controller batches: consecutive events inside one
/// kCtrlBatchWindowS window of virtual time, at most kCtrlBatchMax each.
std::vector<std::vector<ctrl::Event>> batch_stream(
    const std::vector<serve::TimedEvent>& events) {
  std::vector<std::vector<ctrl::Event>> out;
  double window_end = -1.0;
  for (const serve::TimedEvent& te : events) {
    if (out.empty() || te.t_s >= window_end ||
        static_cast<int>(out.back().size()) >= kCtrlBatchMax) {
      out.emplace_back();
      window_end = (std::floor(te.t_s / kCtrlBatchWindowS) + 1.0) * kCtrlBatchWindowS;
    }
    out.back().push_back(te.ev);
  }
  return out;
}

void probe_controller(const wlan::Scenario& serve_sc, const perfbench::ServeSpec& spec,
                      uint64_t seed, const std::vector<serve::TimedEvent>& events,
                      double budget_s, std::vector<double>& ctor_s, Tracer& tr,
                      Report& rep) {
  auto phase = tr.span("bench.probe_ctrl");
  auto c = make_controller(serve_sc, controller_config(spec, seed), tr, ctor_s);
  const auto batches = batch_stream(events);

  std::vector<double> drain_ms, projection_ms, dirty_ms, kconn_ms, dirty_ratio,
      imbalance;
  int64_t groups_rebuilt = 0, sets_rebuilt = 0, full_solves = 0, rollbacks = 0,
          shards = 0, reassoc = 0, handoffs = 0, rejected = 0, k_repaired = 0,
          k_carried = 0, offered = 0;
  const double start = now_seconds();
  for (size_t e = 0; e < batches.size(); ++e) {
    if (e >= 10 && now_seconds() - start >= budget_s) break;
    const std::string id = "epoch-" + std::to_string(e);
    const ctrl::NetworkState before = c->state();
    const std::vector<int> slot_ap_before = c->slot_ap();
    const double kconn0 = c->kconn_seconds();
    offered += static_cast<int64_t>(batches[e].size());
    {
      auto s = tr.span("ctrl.submit", id);
      c->submit(batches[e]);
    }
    double t0 = now_seconds();
    ctrl::EpochReport r;
    {
      auto s = tr.span("ctrl.drain", id);
      r = c->drain();
      while (c->pending_events() > 0) c->drain();
    }
    drain_ms.push_back((now_seconds() - t0) * 1e3);

    t0 = now_seconds();
    {
      auto s = tr.span("ctrl.to_scenario", id);
      std::vector<int> row_slot;
      c->state().to_scenario(&row_slot);
    }
    projection_ms.push_back((now_seconds() - t0) * 1e3);

    t0 = now_seconds();
    {
      auto s = tr.span("ctrl.compute_dirty_slots", id);
      ctrl::compute_dirty_slots(before, c->state(), slot_ap_before);
    }
    dirty_ms.push_back((now_seconds() - t0) * 1e3);

    if (spec.k >= 2) {
      kconn_ms.push_back((c->kconn_seconds() - kconn0) * 1e3);
    } else {
      // No overlay at k = 1: time the cold k = 2 overlay on the committed
      // state instead, the per-epoch cost of turning it on.
      assoc::KconnParams kp;
      kp.k = 2;
      t0 = now_seconds();
      {
        auto s = tr.span("assoc.augment_to_k", id);
        const wlan::Association base = ctrl::compact_association(c->slot_ap(), c->row_slot());
        assoc::augment_to_k(c->scenario(), base, c->loads(), kp);
      }
      kconn_ms.push_back((now_seconds() - t0) * 1e3);
    }

    dirty_ratio.push_back(r.users_present > 0 ? static_cast<double>(r.dirty_users) /
                                                    r.users_present
                                              : 0.0);
    if (r.repair_shards > 0) imbalance.push_back(r.repair_imbalance);
    groups_rebuilt += r.engine_groups_rebuilt;
    sets_rebuilt += r.engine_sets_rebuilt;
    full_solves += r.used_full_solve;
    rollbacks += r.rolled_back;
    shards += r.repair_shards;
    reassoc += r.reassociations;
    handoffs += r.handoffs;
    rejected += r.rejected_joins;
    k_repaired += r.kconn_repaired_users;
    k_carried += r.kconn_carried_users;
  }
  check_controller_state(*c, rep);
  rep.attempted += offered;

  rep.layer("ctrl.drain_p50_ms", util::percentile(drain_ms, 50.0), "ms");
  rep.layer("ctrl.drain_p99_ms", util::percentile(drain_ms, 99.0), "ms");
  rep.layer("ctrl.projection_ms", median(projection_ms), "ms");
  rep.layer("ctrl.dirty_slots_ms", median(dirty_ms), "ms");
  rep.layer("ctrl.dirty_ratio", util::summarize(dirty_ratio).avg, "ratio");
  rep.layer("ctrl.engine_groups_rebuilt", static_cast<double>(groups_rebuilt), "count");
  rep.layer("ctrl.engine_sets_rebuilt", static_cast<double>(sets_rebuilt), "count");
  rep.layer("ctrl.full_solves", static_cast<double>(full_solves), "count");
  rep.layer("ctrl.rollbacks", static_cast<double>(rollbacks), "count");
  rep.layer("ctrl.repair_shards", static_cast<double>(shards), "count");
  rep.layer("ctrl.repair_imbalance",
            imbalance.empty() ? 0.0 : util::summarize(imbalance).avg, "ratio");
  rep.layer("ctrl.reassociations", static_cast<double>(reassoc), "count");
  rep.layer("ctrl.handoffs", static_cast<double>(handoffs), "count");
  rep.layer("ctrl.rejected_joins", static_cast<double>(rejected), "count");
  rep.layer("ctrl.kconn_ms", median(kconn_ms), "ms");
  rep.layer("ctrl.kconn_repaired_users", static_cast<double>(k_repaired), "count");
  rep.layer("ctrl.kconn_carried_users", static_cast<double>(k_carried), "count");
  rep.info.set("probe_ctrl_epochs", static_cast<int64_t>(drain_ms.size()));
  rep.info.set("probe_ctrl_events", offered);
}

void report_serve_layers(const serve::ServeTelemetry& t, Report& rep) {
  rep.layer("serve.queue_wait_p50_ms", t.queue_wait_s.quantile(0.5) * 1e3, "ms");
  rep.layer("serve.queue_wait_p99_ms", t.queue_wait_s.quantile(0.99) * 1e3, "ms");
  rep.layer("serve.decision_p50_ms", t.decision_s.quantile(0.5) * 1e3, "ms");
  rep.layer("serve.decision_p99_ms", t.decision_s.quantile(0.99) * 1e3, "ms");
  rep.layer("serve.batch_size_mean", t.batch_size.mean(), "events");
  rep.layer("serve.queue_depth_max", t.queue_depth.max_value(), "events");
  rep.layer("serve.batches", static_cast<double>(t.batches.value()), "count");
  rep.layer("serve.coalesced_ratio",
            t.accepted.value() > 0 ? static_cast<double>(t.coalesced.value()) /
                                         static_cast<double>(t.accepted.value())
                                   : 0.0,
            "ratio");
  rep.layer("serve.pipeline_overlapped", static_cast<double>(t.pipeline_overlapped.value()),
            "count");
}

/// Replaces each stream-rate change's target with a toggle between the base
/// rate and kRateChangeFactor times it. The generator draws every change as a
/// multiplicative random walk, which moves session rates by up to 4x within
/// one run, so whether the degradation fallback's full re-solves fire, and
/// the committed load, would depend on the seed far more than on the code.
/// Each change still dirties every subscriber of its session.
constexpr double kRateChangeFactor = 1.1;

void bound_rate_changes(std::vector<serve::TimedEvent>& stream,
                        std::vector<double>& session_rate) {
  for (serve::TimedEvent& te : stream) {
    if (te.ev.type != ctrl::EventType::kRateChange) continue;
    double& r = session_rate[static_cast<size_t>(te.ev.session)];
    r = r == perfbench::kStreamRate ? perfbench::kStreamRate * kRateChangeFactor
                                    : perfbench::kStreamRate;
    te.ev.rate_mbps = r;
  }
}

util::Json spec_json(const perfbench::WorkloadSpec& w, uint64_t seed, double seconds) {
  util::Json j = util::Json::object();
  j.set("seed", static_cast<int64_t>(seed));
  j.set("seconds", seconds);
  util::Json plan = util::Json::object();
  const perfbench::NetworkSize pn = w.plan_on_serve_net() ? w.serve.net : w.plan_net;
  plan.set("users", pn.users);
  plan.set("aps", pn.aps);
  j.set("plan_network", std::move(plan));
  util::Json s = util::Json::object();
  s.set("users", w.serve.net.users);
  s.set("aps", w.serve.net.aps);
  s.set("k", w.serve.k);
  s.set("threads", w.serve.threads);
  s.set("pipeline", w.serve.pipeline);
  s.set("profile", w.serve.profile.name);
  s.set("rate_eps", w.serve.rate_eps);
  j.set("serve", std::move(s));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  try {
    const util::Args args(argc, argv);
    args.reject_unknown({"workload", "seed", "seconds", "trace", "trace-out"});
    name = args.get("workload", "");
    seed = args.get_u64("seed", 1);
    seconds = args.get_double("seconds", 10.0);
    trace = args.get_int("trace", 0) != 0;
    trace_out = args.get("trace-out", "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wmcast_perfbench: %s\n", e.what());
    return 2;
  }
  const perfbench::WorkloadSpec* w = perfbench::find_workload(name);
  if (w == nullptr || !(seconds > 0.0)) {
    std::fprintf(stderr, "wmcast_perfbench: need --workload=<name> (");
    for (const auto& x : perfbench::workloads()) std::fprintf(stderr, " %s", x.name.c_str());
    std::fprintf(stderr, " ) and --seconds > 0\n");
    return 2;
  }

  Tracer tr(trace);
  Report rep;
  rep.info.set("spec", spec_json(*w, seed, seconds));

  // Inputs: geometry, then (after the scenario exists) the event streams.
  std::unique_ptr<perfbench::NetworkInputs> plan_in;
  if (!w->plan_on_serve_net()) {
    plan_in = std::make_unique<perfbench::NetworkInputs>(
        perfbench::make_inputs(w->plan_net, seed));
  }
  const perfbench::NetworkInputs serve_in = perfbench::make_inputs(
      w->serve.net, w->plan_on_serve_net() ? seed : seed ^ 0x9E3779B97F4A7C15ULL);

  util::ThreadPool pool(w->serve.threads);
  // The plan solves run in two groups, interleaved with the set-ups (round i
  // builds a fresh set-up, then solves) and after saturation, so the samples
  // behind the medians come from both ends of the run instead of one window
  // of a machine whose speed drifts. No solve runs between the fixed-rate
  // and saturation phases, so saturation starts from the state the
  // fixed-rate phase leaves behind.
  Setup setup;
  SetupTimes setup_times;
  PlanRun plan;
  const int plan_reps = w->plan_reps(seconds);
  const int first_group = (plan_reps + 1) / 2;
  for (int i = 0; i < std::max(kSetupReps, first_group); ++i) {
    if (i < kSetupReps) {
      setup_once(*w, seed, plan_in.get(), serve_in, pool, i, tr, setup, setup_times);
    }
    if (i < first_group) plan_once(setup.plan(), i, tr, plan);
  }
  rep.metric("setup_s", median(setup_times.total_s), "s");
  // Peak memory of the set-up phase and the first plan group: the scenario,
  // controller and solver structures. Serving adds heap growth whose size
  // depends on how the allocator reuses freed blocks, which varies from run
  // to run, so the second plan group does not count.
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");

  const double fixed_s = w->fixed_share * seconds;
  const ctrl::NetworkState initial = ctrl::NetworkState::from_scenario(*setup.serve_sc);
  serve::WorkloadParams wp;
  wp.duration_s = fixed_s;
  wp.events_per_s = w->serve.rate_eps;
  wp.seed = seed;
  serve::WorkloadGenerator gen(initial, w->serve.profile, wp);
  std::vector<serve::TimedEvent> fixed;
  for (serve::TimedEvent te; gen.next(&te);) fixed.push_back(te);
  // The saturation pool continues the same network evolution past the
  // fixed-rate stream; its stamps are replaced when it is offered. The
  // generator emits about rate * duration events (storms add more), so 5%
  // and one second of slack cover every round.
  const int sat_rounds = w->saturation_rounds(seconds, kSaturationChunk);
  serve::WorkloadParams sp = wp;
  sp.seed = seed + 1;
  sp.duration_s = 1.0 + 1.05 * sat_rounds * kSaturationChunk / w->serve.rate_eps;
  std::vector<serve::TimedEvent> sat_pool =
      serve::generate_workload(gen.state(), w->serve.profile, sp);
  std::vector<double> session_rate(static_cast<size_t>(perfbench::kSessions),
                                   perfbench::kStreamRate);
  bound_rate_changes(fixed, session_rate);
  bound_rate_changes(sat_pool, session_rate);

  // Fixed-rate phase.
  serve::ServeTelemetry fixed_tele;
  {
    auto phase = tr.span("bench.serve_fixed");
    fixed_tele = run_stream(*setup.loop, fixed, fixed_s, tr);
  }
  check_serve_telemetry("fixed_rate", fixed_tele, rep);
  rep.metric("latency_p50_ms", fixed_tele.latency_s.quantile(0.5) * 1e3, "ms");
  rep.metric("latency_p99_ms", fixed_tele.latency_s.quantile(0.99) * 1e3, "ms");
  // Exact figures the histogram keeps beside its factor-2 buckets: a
  // speed-up that leaves every latency in its bucket moves these but not
  // the quantiles above.
  rep.info.set("latency_mean_ms", fixed_tele.latency_s.mean() * 1e3);
  rep.info.set("latency_max_ms", fixed_tele.latency_s.max_value() * 1e3);
  // Service quality of the state the fixed-rate stream leaves behind.
  check_controller_state(*setup.controller, rep);
  const ctrl::Telemetry& ct = setup.controller->telemetry();
  rep.metric("served_ratio",
             ct.users_subscribed.value() > 0
                 ? ct.users_served.value() / ct.users_subscribed.value()
                 : 0.0,
             "ratio");
  rep.metric("serve_total_load", setup.controller->loads().total_load, "load");

  // Saturation phase, on the same controller.
  const int pool_rounds = static_cast<int>(sat_pool.size() / kSaturationChunk);
  rep.check("saturation_pool_holds_every_round", pool_rounds >= sat_rounds,
            std::to_string(sat_pool.size()) + " events");
  const Saturation sat = run_saturation(*setup.controller, serve_config(w->serve), sat_pool,
                                        std::min(sat_rounds, pool_rounds), tr, rep);
  rep.metric("capacity_eps", median(sat.round_eps), "events/s");
  check_controller_state(*setup.controller, rep);

  for (int i = first_group; i < plan_reps; ++i) plan_once(setup.plan(), i, tr, plan);
  rep.attempted += 2 * static_cast<int64_t>(plan.mla_s.size());
  check_plan(setup.plan(), plan, rep);
  rep.metric("plan_mla_s", median(plan.mla_s), "s");
  rep.metric("plan_mnu_s", median(plan.mnu_s), "s");
  rep.metric("mla_total_load", plan.mla.loads.total_load, "load");
  rep.metric("mnu_satisfied_ratio",
             static_cast<double>(plan.mnu.loads.satisfied_users) / setup.plan().n_users(),
             "ratio");
  rep.metric("kconn_mean_rate_mbps", plan.mla.multi_loads.mean_effective_rate, "Mbps");

  util::Json samples = util::Json::object();
  samples.set("setup_reps", static_cast<int64_t>(setup_times.total_s.size()));
  samples.set("plan_reps", static_cast<int64_t>(plan.mla_s.size()));
  util::Json mla_samples = util::Json::array();
  for (const double s : plan.mla_s) mla_samples.push(s);
  samples.set("plan_mla_s", std::move(mla_samples));
  util::Json setup_samples = util::Json::array();
  for (const double s : setup_times.total_s) setup_samples.push(s);
  samples.set("setup_s", std::move(setup_samples));
  samples.set("fixed_events", static_cast<int64_t>(fixed.size()));
  samples.set("fixed_wall_s", fixed_tele.wall_elapsed_s);
  samples.set("saturation_events", sat.events);
  samples.set("saturation_rounds", static_cast<int64_t>(sat.round_eps.size()));
  rep.info.set("samples", std::move(samples));

  if (trace) {
    // Probe passes: single layer calls, timed one by one. They run after the
    // end-to-end phases so those phases are the same in both modes.
    probe_plan_layers(setup.plan(), 0.5 * w->plan_share * seconds, tr, rep);
    probe_controller(*setup.serve_sc, w->serve, seed, fixed, 0.3 * seconds,
                     setup_times.ctor_s, tr, rep);
    rep.layer("wlan.scenario_build_s", median(setup_times.scenario_s), "s");
    rep.layer("ctrl.ctor_s", median(setup_times.ctor_s), "s");
    report_serve_layers(fixed_tele, rep);
    for (const auto& [layer, s] : tr.self_seconds_by_layer()) {
      rep.layer(layer + ".self_s", s, "s");
    }
    rep.info.set("spans", static_cast<int64_t>(tr.spans().size()));
    if (!trace_out.empty()) {
      std::ofstream f(trace_out);
      f << tr.to_json().dump() << "\n";
      if (!f) {
        std::fprintf(stderr, "wmcast_perfbench: cannot write %s\n", trace_out.c_str());
        rep.check("trace_written", false, trace_out);
      }
    }
  }

  util::Json doc = util::Json::object();
  doc.set("workload", w->name);
  doc.set("trace", trace);
  doc.set("correct", rep.failed_checks == 0);
  doc.set("attempted", rep.attempted);
  doc.set("failed", rep.failed);
  doc.set("failed_ratio", rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                                  static_cast<double>(rep.attempted)
                                            : 0.0);
  doc.set("checks", std::move(rep.checks));
  doc.set("e2e", std::move(rep.e2e));
  doc.set("layers", std::move(rep.layers));
  doc.set("info", std::move(rep.info));
  std::printf("%s\n", doc.dump().c_str());
  return rep.failed_checks == 0 ? 0 : 1;
}
