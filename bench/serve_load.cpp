// Serve-loop load bench (DESIGN.md §12): sustains a synthetic workload
// (serve/workload) against the full serve stack — bounded queue, adaptive
// batching, bounded-staleness coalescing, controller repair — and reports
// events/sec plus p50/p99/p999 ingest→decision latency, the subsystem's SLO
// surface. A burst-profile comparison arm re-runs the same flash-crowd
// workload with --batch-max=1 to measure how much batching + coalescing buy
// on correlated bursts (the regime the serve loop exists for).
//
// Run: ./serve_load [--users=100000] [--aps=2000] [--sessions=8] [--degree=20]
//                   [--seed=71] [--threads=N] [--profile=mixed] [--rate=2000]
//                   [--duration=5] [--batch-max=256] [--staleness-ms=50]
//                   [--queue-cap=0] [--policy=reject] [--refresh=0]
//                   [--threshold=0.5] [--burst-events=1500] [--no-burst]
//                   [--require-batching-gain=0] [--pipeline] [--k=1]
//                   [--kconn-events=4000] [--require-kconn-speedup=0]
//                   [--json=out.json] [--simd=auto|scalar|avx2]
//
//  --require-batching-gain=K  exit 1 unless the batched burst arm beats
//                             --batch-max=1 by >= K in wall events/sec;
//                             CI pins K on the committed BENCH_serve.json run
//  --k=K                      serve with the k-connectivity overlay
//                             (DESIGN.md §15/§16); with K >= 2 an extra churn
//                             arm (kconn_incremental) serves a truncated
//                             stream, and a cold leg replays it on a second
//                             controller in as many equal batches, timing a
//                             serial re-derivation of the whole overlay after
//                             each drain (exit 1 if it differs from the
//                             controller's overlay)
//  --kconn-events=N           truncate the kconn comparison stream to N events
//                             so the cold leg (a full re-derivation per batch)
//                             stays tractable at 100k users
//  --require-kconn-speedup=K  exit 1 unless the incremental overlay repair
//                             beats the cold leg by >= K in wall time; the
//                             dirty-region repair claim of DESIGN.md §16,
//                             pinned by CI
//  --json                     wmcast-microbench/v1 document for
//                             tools/bench_guard (per-event wall ns per arm,
//                             plus the main arm's p99 latency in ns)

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "wmcast/assoc/kconn.hpp"
#include "wmcast/ctrl/controller.hpp"
#include "wmcast/serve/loop.hpp"
#include "wmcast/serve/workload.hpp"
#include "wmcast/util/cli.hpp"
#include "wmcast/util/json.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/stats.hpp"
#include "wmcast/util/table.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/scenario.hpp"

using namespace wmcast;

using wmcast::bench::now_seconds;
using wmcast::bench::peak_rss_bytes;

namespace {

struct ArmResult {
  std::string name;
  size_t events = 0;
  uint64_t batches = 0;
  double wall_s = 0.0;     // serve loop + controller only (workload pre-built)
  double events_per_s = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double p999_s = 0.0;
  double p99_decision_s = 0.0;  // batch start -> decision committed
  uint64_t coalesced = 0;
  double kconn_s = 0.0;  // wall spent in refresh_multi (overlay repair only)
  uint64_t kconn_repaired = 0;  // engine.kconn.repaired_users over the run
};

ArmResult run_arm(const std::string& name, const wlan::Scenario& sc,
                  const ctrl::ControllerConfig& cfg, const serve::ServeConfig& scfg,
                  const std::vector<serve::TimedEvent>& events, double duration_s) {
  ctrl::AssociationController controller(sc, cfg);
  serve::ServeLoop loop(&controller, scfg);
  // Exclude the constructor's first overlay derivation: the arm measures
  // steady-state epoch repair.
  const double kconn0 = controller.kconn_seconds();
  const double t0 = now_seconds();
  for (const auto& te : events) loop.offer(te.t_s, te.ev);
  const serve::ServeTelemetry& tele = loop.finish(duration_s);
  ArmResult r;
  r.name = name;
  r.events = events.size();
  r.batches = tele.batches.value();
  r.wall_s = now_seconds() - t0;
  r.events_per_s = r.wall_s > 0.0 ? static_cast<double>(events.size()) / r.wall_s : 0.0;
  r.p50_s = tele.latency_s.quantile(0.5);
  r.p99_s = tele.latency_s.quantile(0.99);
  r.p999_s = tele.latency_s.quantile(0.999);
  r.p99_decision_s = tele.decision_s.quantile(0.99);
  r.coalesced = tele.coalesced.value();
  r.kconn_s = controller.kconn_seconds() - kconn0;
  r.kconn_repaired = controller.telemetry().engine_kconn_repaired_users.value();
  return r;
}

/// The cold overlay leg: replays `events` on a fresh controller in `batches`
/// equal batches and, after each drain, times the serial re-derivation of the
/// whole k >= 2 overlay from the committed state through the public phase
/// functions — plan every AP, derive every row, settle every AP, fold the
/// load report — reusing the plan, served-set store and tx table across
/// epochs. Returns the summed seconds of those re-derivations, or -1 when one
/// differs from the controller's own overlay.
double cold_overlay_seconds(const wlan::Scenario& sc, const ctrl::ControllerConfig& cfg,
                            const std::vector<serve::TimedEvent>& events,
                            uint64_t batches) {
  ctrl::AssociationController controller(sc, cfg);
  assoc::KconnParams kp;
  kp.k = cfg.k;
  kp.multi_rate = cfg.multi_rate;
  kp.enforce_budget = true;  // as the controller does
  assoc::KconnPlan plan;  // the AP and session counts never change
  plan.resize(sc.n_aps(), sc.n_sessions());
  std::vector<std::vector<double>> tx(
      static_cast<size_t>(sc.n_aps()),
      std::vector<double>(static_cast<size_t>(sc.n_sessions())));
  wlan::MultiAssociation multi;
  assoc::KconnScratch scratch;
  const size_t n_batches = std::max<uint64_t>(batches, 1);
  double seconds = 0.0;
  for (size_t b = 0; b < n_batches; ++b) {
    for (size_t i = events.size() * b / n_batches;
         i < events.size() * (b + 1) / n_batches; ++i) {
      controller.submit(events[i].ev);
    }
    controller.drain();
    const wlan::Scenario& esc = controller.scenario();
    const wlan::Association base{controller.slot_ap()};
    const wlan::LoadReport& loads = controller.loads();

    const double t0 = now_seconds();
    for (int a = 0; a < esc.n_aps(); ++a) {
      assoc::kconn_plan_ap(esc, base, loads, kp, a, plan);
    }
    multi.user_aps.resize(static_cast<size_t>(esc.n_users()));
    for (int u = 0; u < esc.n_users(); ++u) {
      assoc::kconn_derive_user(esc, base, plan, kp, u,
                               multi.user_aps[static_cast<size_t>(u)], scratch);
    }
    for (int a = 0; a < esc.n_aps(); ++a) {
      assoc::kconn_settle_ap(esc, loads, kp, plan, multi, a,
                             tx[static_cast<size_t>(a)].data());
    }
    const wlan::MultiLoadReport report = wlan::multi_loads_from_tx(esc, multi, tx);
    seconds += now_seconds() - t0;

    const wlan::MultiLoadReport& kept = controller.multi_loads();
    if (!(multi == controller.multi_assoc()) || report.tx_rate != kept.tx_rate ||
        report.effective_rate != kept.effective_rate ||
        report.total_load != kept.total_load) {
      return -1.0;
    }
  }
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.reject_unknown({"users", "aps", "sessions", "degree", "seed", "threads",
                       "profile", "rate", "duration", "batch-max", "staleness-ms",
                       "queue-cap", "policy", "refresh", "threshold",
                       "burst-events", "no-burst", "require-batching-gain",
                       "pipeline", "k", "kconn-events", "require-kconn-speedup",
                       "json", "simd"});
  util::resolve_simd(args);
  const int n_users = args.get_int("users", 100000);
  const int n_aps = args.get_int("aps", 2000);
  const int n_sessions = args.get_int("sessions", 8);
  const double degree = args.get_double("degree", 20.0);
  const uint64_t seed = args.get_u64("seed", 71);
  const std::string profile_name = args.get("profile", "mixed");
  const double rate = args.get_double("rate", 2000.0);
  const double duration_s = args.get_double("duration", 5.0);
  const int burst_events = args.get_int("burst-events", 1500);
  const bool run_burst = !args.get_bool("no-burst", false);
  const double require_gain = args.get_double("require-batching-gain", 0.0);
  const int k = args.get_int("k", 1);
  const int kconn_events = args.get_int("kconn-events", 4000);
  const double require_kconn = args.get_double("require-kconn-speedup", 0.0);
  util::ThreadPool pool(util::resolve_threads(args));

  // Degree-held geometry, as in scale_build: event cost stays local as the
  // instance grows.
  const wlan::RateTable table = wlan::RateTable::ieee80211a();
  const double r = table.range_m();
  const double side =
      std::sqrt(static_cast<double>(n_aps) * 3.14159265358979323846 * r * r / degree);

  util::Rng rng(seed);
  std::vector<wlan::Point> ap_pos(static_cast<size_t>(n_aps));
  for (auto& p : ap_pos) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  std::vector<wlan::Point> user_pos(static_cast<size_t>(n_users));
  for (auto& p : user_pos) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  std::vector<int> user_session(static_cast<size_t>(n_users));
  for (auto& s : user_session) s = rng.next_int(n_sessions);
  const std::vector<double> session_rates(static_cast<size_t>(n_sessions), 1.0);
  const wlan::Scenario sc = wlan::Scenario::from_geometry(
      ap_pos, user_pos, user_session, session_rates, table, 0.9, &pool);

  ctrl::ControllerConfig cfg;
  cfg.seed = seed;
  cfg.threads = static_cast<int>(pool.size());
  cfg.max_batch = 0;  // the serve loop owns batching
  // Refresh the baseline only when the degradation fallback demands it, and
  // loosen that fallback: serve epochs are tiny (one batch each), so periodic
  // or hair-trigger full re-solves would have the bench measuring the
  // offline solver instead of the serving fast path. A production loop at
  // this scale schedules re-solves out of band for the same reason.
  cfg.full_refresh_epochs = args.get_int("refresh", 0);
  cfg.degradation_threshold = args.get_double("threshold", 0.5);
  cfg.k = k;  // every arm serves the overlay when --k >= 2

  serve::ServeConfig scfg;
  scfg.batch_max = args.get_int("batch-max", scfg.batch_max);
  scfg.staleness_s = args.get_double("staleness-ms", scfg.staleness_s * 1000.0) / 1000.0;
  const int queue_cap = args.get_int("queue-cap", 0);
  scfg.queue_cap = queue_cap <= 0 ? 0 : static_cast<size_t>(queue_cap);
  scfg.policy = serve::overflow_policy_from_name(args.get("policy", "reject"));
  scfg.pipeline = args.get_bool("pipeline", false);

  std::printf("serve_load: %d users, %d APs, profile %s, %.0f events/s x %.1fs, "
              "batch-max %d, staleness %.0f ms, threads %d\n\n",
              n_users, n_aps, profile_name.c_str(), rate, duration_s, scfg.batch_max,
              scfg.staleness_s * 1000.0, static_cast<int>(pool.size()));

  // Workloads are pre-generated so arms measure the serve stack, not the
  // generator, and comparison arms consume byte-identical streams.
  const ctrl::NetworkState initial = ctrl::NetworkState::from_scenario(sc);
  serve::WorkloadParams wp;
  wp.duration_s = duration_s;
  wp.events_per_s = rate;
  wp.seed = seed;
  const std::vector<serve::TimedEvent> workload =
      serve::generate_workload(initial, serve::WorkloadProfile::named(profile_name), wp);

  std::vector<ArmResult> arms;
  const std::string size_tag = "u" + std::to_string(n_users);
  arms.push_back(run_arm("serve/" + profile_name, sc, cfg, scfg, workload, duration_s));

  double gain = 0.0;
  if (run_burst) {
    // Flash-crowd stream, truncated so the unbatched arm stays tractable
    // (every event is a full controller epoch there).
    serve::WorkloadParams bp = wp;
    bp.duration_s = std::max(1.0, duration_s);
    std::vector<serve::TimedEvent> burst = serve::generate_workload(
        initial, serve::WorkloadProfile::named("flash"), bp);
    if (static_cast<int>(burst.size()) > burst_events) {
      burst.resize(static_cast<size_t>(burst_events));
    }
    const double burst_end = burst.empty() ? 0.0 : burst.back().t_s;

    arms.push_back(run_arm("burst_batched", sc, cfg, scfg, burst, burst_end));
    serve::ServeConfig one = scfg;
    one.batch_max = 1;
    one.coalesce = false;
    arms.push_back(run_arm("burst_batch1", sc, cfg, one, burst, burst_end));
    const ArmResult& batched = arms[arms.size() - 2];
    const ArmResult& single = arms.back();
    gain = single.events_per_s > 0.0 ? batched.events_per_s / single.events_per_s : 0.0;
  }

  double kconn_speedup = 0.0;
  double kconn_inc_s = 0.0;
  double kconn_cold_s = 0.0;
  size_t kconn_arm = 0;  // index of the kconn_incremental arm
  if (k >= 2) {
    // Incremental-vs-cold overlay repair on a pure churn stream (moves /
    // joins / leaves / zaps). Rate changes are filtered out, as they were
    // when the committed cold baseline (bench/BENCH_kconn_cold_baseline.json)
    // was measured. The gate compares wall time spent on the overlay alone —
    // base repair would otherwise swamp its cost.
    std::vector<serve::TimedEvent> churn;
    churn.reserve(workload.size());
    for (const auto& te : workload) {
      if (te.ev.type == ctrl::EventType::kRateChange) continue;
      if (kconn_events > 0 && static_cast<int>(churn.size()) >= kconn_events) break;
      churn.push_back(te);
    }
    const double churn_end = churn.empty() ? 0.0 : churn.back().t_s;

    kconn_arm = arms.size();
    arms.push_back(run_arm("kconn_incremental", sc, cfg, scfg, churn, churn_end));
    kconn_inc_s = arms[kconn_arm].kconn_s;
    kconn_cold_s = cold_overlay_seconds(sc, cfg, churn, arms[kconn_arm].batches);
    if (kconn_cold_s < 0.0) {
      std::fprintf(stderr, "serve_load: cold overlay re-derivation differs from "
                           "the controller's overlay\n");
      return 1;
    }
    kconn_speedup = kconn_inc_s > 0.0 ? kconn_cold_s / kconn_inc_s : 0.0;
  }

  util::Table t({"arm", "events", "batches", "wall_s", "events/s", "p50_ms",
                 "p99_ms", "p999_ms", "p99_dec_ms", "coalesced"});
  for (const ArmResult& a : arms) {
    t.add_row({a.name, std::to_string(a.events), std::to_string(a.batches),
               util::fmt(a.wall_s, 3), util::fmt(a.events_per_s, 0),
               util::fmt(a.p50_s * 1000.0, 2), util::fmt(a.p99_s * 1000.0, 2),
               util::fmt(a.p999_s * 1000.0, 2),
               util::fmt(a.p99_decision_s * 1000.0, 2), std::to_string(a.coalesced)});
  }
  t.print();
  if (run_burst) {
    std::printf("\nbatching+coalescing gain on flash bursts: %.1fx events/s over "
                "--batch-max=1\n", gain);
  }
  if (k >= 2) {
    const ArmResult& inc_arm = arms[kconn_arm];
    std::printf("\n%s overlay repair: %.3fs in refresh_multi vs %.3fs cold "
                "re-derivation over %llu batches (%.1fx faster, k=%d; %llu users "
                "re-derived)\n",
                inc_arm.name.c_str(), kconn_inc_s, kconn_cold_s,
                static_cast<unsigned long long>(inc_arm.batches), kconn_speedup, k,
                static_cast<unsigned long long>(inc_arm.kconn_repaired));
  }

  const std::string json_path = args.get("json", "");
  if (!json_path.empty()) {
    util::Json doc = util::Json::object();
    doc.set("schema", "wmcast-microbench/v1");
    doc.set("threads", static_cast<int>(pool.size()));
    util::Json benches = util::Json::array();
    for (const ArmResult& a : arms) {
      util::Json b = util::Json::object();
      b.set("name", "serve_load/" + a.name + "/" + size_tag);
      b.set("real_time_ns",
            a.events > 0 ? a.wall_s * 1e9 / static_cast<double>(a.events) : 0.0);
      b.set("iterations", static_cast<int64_t>(a.events));
      b.set("peak_rss_bytes", static_cast<int64_t>(peak_rss_bytes()));
      benches.push(std::move(b));
    }
    {
      // The SLO itself, gated alongside throughput: main-arm p99 decision
      // latency (open-loop — measured service time against the workload's
      // virtual arrival clock, so it degrades when serving can't keep up).
      util::Json b = util::Json::object();
      b.set("name", "serve_load/p99_latency/" + profile_name + "/" + size_tag);
      b.set("real_time_ns", arms.front().p99_s * 1e9);
      b.set("iterations", static_cast<int64_t>(arms.front().events));
      benches.push(std::move(b));
    }
    if (k >= 2) {
      // Overlay-repair-only entries for the incremental-kconn speedup gate:
      // the committed cold baseline (bench/BENCH_kconn_cold_baseline.json)
      // carries a cold leg's number under the kconn_repair name, so
      // bench_guard --only=serve_load/kconn_repair/<tag> --require-speedup=K
      // pins the incremental engine's win against a full re-derivation.
      const size_t churn_events = arms[kconn_arm].events;
      util::Json b = util::Json::object();
      b.set("name", "serve_load/kconn_repair/" + size_tag);
      b.set("real_time_ns",
            churn_events > 0 ? kconn_inc_s * 1e9 / static_cast<double>(churn_events)
                             : 0.0);
      b.set("iterations", static_cast<int64_t>(churn_events));
      benches.push(std::move(b));
      util::Json bc = util::Json::object();
      bc.set("name", "serve_load/kconn_repair_cold/" + size_tag);
      bc.set("real_time_ns",
             churn_events > 0 ? kconn_cold_s * 1e9 / static_cast<double>(churn_events)
                              : 0.0);
      bc.set("iterations", static_cast<int64_t>(churn_events));
      benches.push(std::move(bc));
    }
    // Decision-only p99 per arm: the batch start -> decision-committed slice
    // of the split latency histogram, without the queue wait.
    for (const ArmResult& a : arms) {
      util::Json b = util::Json::object();
      b.set("name", "serve_load/p99_decision/" + a.name + "/" + size_tag);
      b.set("real_time_ns", a.p99_decision_s * 1e9);
      b.set("iterations", static_cast<int64_t>(a.events));
      benches.push(std::move(b));
    }
    doc.set("benchmarks", std::move(benches));
    std::ofstream f(json_path);
    if (!f) {
      std::fprintf(stderr, "serve_load: cannot write %s\n", json_path.c_str());
      return 1;
    }
    f << doc.dump(2) << "\n";
    std::printf("\njson written to %s\n", json_path.c_str());
  }

  if (require_gain > 0.0) {
    if (!run_burst) {
      std::fprintf(stderr, "serve_load: --require-batching-gain needs the burst arms\n");
      return 1;
    }
    if (gain < require_gain) {
      std::fprintf(stderr, "serve_load: batching gain %.2fx below required %.2fx\n",
                   gain, require_gain);
      return 1;
    }
  }
  if (require_kconn > 0.0) {
    if (k < 2) {
      std::fprintf(stderr, "serve_load: --require-kconn-speedup needs --k >= 2\n");
      return 1;
    }
    if (kconn_speedup < require_kconn) {
      std::fprintf(stderr, "serve_load: kconn speedup %.2fx below required %.2fx\n",
                   kconn_speedup, require_kconn);
      return 1;
    }
  }
  return 0;
}
