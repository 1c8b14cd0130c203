#include "wmcast/chaos/campaign.hpp"

#include <exception>
#include <filesystem>
#include <ostream>
#include <stdexcept>

#include "wmcast/chaos/oracles.hpp"
#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/state.hpp"
#include "wmcast/ctrl/trace.hpp"
#include "wmcast/util/assert.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"
#include "wmcast/wlan/serialization.hpp"

namespace wmcast::chaos {
namespace {

void accumulate(FaultLog& into, const FaultLog& add) {
  into.events_dropped += add.events_dropped;
  into.events_duplicated += add.events_duplicated;
  into.events_skewed += add.events_skewed;
  into.windows_reordered += add.windows_reordered;
  into.ap_flaps += add.ap_flaps;
  into.churn_bursts += add.churn_bursts;
  into.lines_corrupted += add.lines_corrupted;
}

std::string file_safe(std::string s) {
  for (char& c : s) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-';
    if (!keep) c = '_';
  }
  return s;
}

/// Corrupted-text parser probe: serialized state fed back through the
/// parsers must either round-trip or throw std::invalid_argument — anything
/// else (a crash, an assert, a different exception type) escapes and fails
/// the campaign loudly, which is the point.
template <typename ParseFn>
void probe_parser(FaultInjector& inj, const std::string& clean_text, ParseFn parse,
                  CampaignResult& res) {
  const std::string corrupted = inj.corrupt_text(clean_text);
  ++res.parse_attempts;
  try {
    parse(corrupted);
  } catch (const std::invalid_argument&) {
    ++res.parse_rejected;
  }
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& cfg, std::ostream* progress) {
  util::require(cfg.scenarios >= 0, "campaign: scenarios must be >= 0");
  util::require(cfg.threads >= 1, "campaign: threads must be >= 1");
  if (cfg.profile != "all") FaultProfile::named(cfg.profile);  // validate early

  CampaignResult res;
  util::Rng master(cfg.seed);
  if (!cfg.out_dir.empty()) std::filesystem::create_directories(cfg.out_dir);

  for (int i = 0; i < cfg.scenarios; ++i) {
    const std::string profile_name =
        cfg.profile == "all"
            ? FaultProfile::names()[static_cast<size_t>(i) % FaultProfile::names().size()]
            : cfg.profile;
    const FaultProfile profile = FaultProfile::named(profile_name);
    util::Rng scenario_rng = master.fork();
    const uint64_t fault_seed = master.next_u64();

    wlan::GeneratorParams gp;
    gp.n_aps = cfg.n_aps;
    gp.n_users = cfg.n_users;
    gp.n_sessions = cfg.n_sessions;
    gp.area_side_m = cfg.area_side_m;
    const auto sc = wlan::generate_scenario(gp, scenario_rng);
    const auto initial = ctrl::NetworkState::from_scenario(sc);

    ctrl::TraceParams tp;
    tp.epochs = cfg.trace_epochs;
    tp.move_fraction = 0.15;
    tp.walk_sigma_m = 30.0;
    tp.zap_fraction = 0.05;
    tp.leave_fraction = 0.03;
    tp.join_fraction = 0.05;
    tp.rate_change_prob = 0.2;
    const auto trace = ctrl::generate_churn_trace(initial, tp, scenario_rng);

    FaultInjector injector(fault_seed, profile);
    const auto perturbed = injector.perturb(trace, initial);

    ctrl::ControllerConfig ccfg;
    ccfg.full_solver = cfg.solver;
    ccfg.seed = fault_seed;
    // Fresh baseline every epoch: the controller's degradation guarantee is
    // relative to its baseline, so the bounded-degradation oracle (which
    // compares against a cold solve of the *current* state) is only sound
    // when the baseline never goes stale.
    ccfg.full_refresh_epochs = 1;

    std::vector<OracleResult> verdicts = check_solver_equivalence(sc);
    const auto simd_verdicts = check_simd_vs_scalar(sc);
    verdicts.insert(verdicts.end(), simd_verdicts.begin(), simd_verdicts.end());
    auto replay = check_differential_replay(sc, perturbed, ccfg, cfg.threads);
    verdicts.insert(verdicts.end(), replay.results.begin(), replay.results.end());
    const auto serve_par =
        check_serve_repair_parallel(sc, perturbed, ccfg, cfg.threads);
    verdicts.insert(verdicts.end(), serve_par.begin(), serve_par.end());
    const auto kconn_k1 = check_kconn_k1_identity(sc);
    verdicts.insert(verdicts.end(), kconn_k1.begin(), kconn_k1.end());
    const auto kconn_par = check_kconn_parallel(sc, perturbed, ccfg, cfg.threads);
    verdicts.insert(verdicts.end(), kconn_par.begin(), kconn_par.end());
    const auto kconn_inc =
        check_kconn_incremental(sc, perturbed, ccfg, cfg.threads);
    verdicts.insert(verdicts.end(), kconn_inc.begin(), kconn_inc.end());

    if (profile.corrupt_prob > 0.0) {
      probe_parser(injector, ctrl::trace_to_text(trace),
                   [](const std::string& t) { ctrl::trace_from_text(t); }, res);
      probe_parser(injector, wlan::to_text(sc),
                   [](const std::string& t) { wlan::from_text(t); }, res);
      // Same instance as an explicit scenario: exercises the v2 sparse_links
      // writer and its parser branch, not just the geometric one.
      std::vector<std::vector<double>> dense(
          static_cast<size_t>(sc.n_aps()),
          std::vector<double>(static_cast<size_t>(sc.n_users()), 0.0));
      for (int a = 0; a < sc.n_aps(); ++a) {
        const wlan::IndexSpan members = sc.users_of_ap(a);
        const wlan::RateSpan rates = sc.rates_of_ap(a);
        for (size_t k = 0; k < members.size(); ++k) {
          dense[static_cast<size_t>(a)][static_cast<size_t>(members[k])] = rates[k];
        }
      }
      std::vector<int> sessions(static_cast<size_t>(sc.n_users()));
      for (int u = 0; u < sc.n_users(); ++u) sessions[static_cast<size_t>(u)] = sc.user_session(u);
      std::vector<double> srates(static_cast<size_t>(sc.n_sessions()));
      for (int s = 0; s < sc.n_sessions(); ++s) srates[static_cast<size_t>(s)] = sc.session_rate(s);
      const wlan::Scenario explicit_sc = wlan::Scenario::from_link_rates(
          std::move(dense), std::move(sessions), std::move(srates), sc.load_budget());
      probe_parser(injector, wlan::to_text(explicit_sc),
                   [](const std::string& t) { wlan::from_text(t); }, res);
    }
    accumulate(res.faults, injector.log());

    int failed_here = 0;
    const OracleResult* first_failure = nullptr;
    for (const auto& v : verdicts) {
      ++res.checks_run;
      if (!v.pass) {
        ++res.checks_failed;
        ++failed_here;
        if (first_failure == nullptr) first_failure = &v;
      }
    }

    if (first_failure != nullptr) {
      CampaignFinding finding;
      finding.scenario_index = i;
      finding.seed = fault_seed;
      finding.profile = profile_name;
      finding.repro.check = first_failure->check;
      finding.repro.detail = first_failure->detail;
      finding.repro.seed = fault_seed;
      finding.repro.profile = profile_name;
      finding.repro.solver = cfg.solver;
      finding.repro.threads = cfg.threads;
      finding.repro.scenario = sc;
      finding.repro.trace = perturbed;

      if (cfg.shrink_failures) {
        // "Still failing" = any oracle still objects. Pinning the exact check
        // name would shrink more surgically but risks chasing a failure mode
        // that shifts as events disappear; any-failure is stable and every
        // accepted step is still a genuine repro.
        const auto still_fails = [&](const ctrl::EventTrace& cand) {
          const auto r = check_differential_replay(sc, cand, ccfg, cfg.threads);
          for (const auto& v : r.results) {
            if (!v.pass) return true;
          }
          return false;
        };
        try {
          auto shrunk = shrink_trace(perturbed, still_fails);
          finding.repro.trace = std::move(shrunk.trace);
        } catch (const std::invalid_argument&) {
          // The failure came from check_solver_equivalence, not the replay:
          // the trace is irrelevant to it, so keep the raw trace.
        }
      }

      if (!cfg.out_dir.empty()) {
        const std::string path = cfg.out_dir + "/repro_s" + std::to_string(i) + "_" +
                                 file_safe(finding.repro.check) + ".repro";
        if (save_repro(finding.repro, path)) finding.repro_path = path;
      }
      res.findings.push_back(std::move(finding));
    }

    ++res.scenarios_run;
    if (progress != nullptr) {
      *progress << "chaos: scenario " << i << " profile=" << profile_name
                << " seed=" << fault_seed
                << (failed_here == 0 ? " ok"
                                     : " FAILED (" + std::to_string(failed_here) +
                                           " checks)")
                << '\n';
    }
  }
  return res;
}

util::Json campaign_to_json(const CampaignConfig& cfg, const CampaignResult& res) {
  auto j = util::Json::object();
  auto config = util::Json::object();
  config.set("seed", static_cast<int64_t>(cfg.seed));
  config.set("scenarios", cfg.scenarios);
  config.set("profile", cfg.profile);
  config.set("threads", cfg.threads);
  config.set("solver", cfg.solver);
  config.set("n_aps", cfg.n_aps);
  config.set("n_users", cfg.n_users);
  config.set("n_sessions", cfg.n_sessions);
  config.set("trace_epochs", cfg.trace_epochs);
  j.set("config", std::move(config));

  j.set("scenarios_run", res.scenarios_run);
  j.set("checks_run", res.checks_run);
  j.set("checks_failed", res.checks_failed);
  j.set("parse_attempts", res.parse_attempts);
  j.set("parse_rejected", res.parse_rejected);
  j.set("clean", res.clean());

  auto faults = util::Json::object();
  faults.set("events_dropped", static_cast<int64_t>(res.faults.events_dropped));
  faults.set("events_duplicated", static_cast<int64_t>(res.faults.events_duplicated));
  faults.set("events_skewed", static_cast<int64_t>(res.faults.events_skewed));
  faults.set("windows_reordered", static_cast<int64_t>(res.faults.windows_reordered));
  faults.set("ap_flaps", static_cast<int64_t>(res.faults.ap_flaps));
  faults.set("churn_bursts", static_cast<int64_t>(res.faults.churn_bursts));
  faults.set("lines_corrupted", static_cast<int64_t>(res.faults.lines_corrupted));
  j.set("faults", std::move(faults));

  auto findings = util::Json::array();
  for (const auto& f : res.findings) {
    auto jf = util::Json::object();
    jf.set("scenario_index", f.scenario_index);
    jf.set("seed", static_cast<int64_t>(f.seed));
    jf.set("profile", f.profile);
    jf.set("check", f.repro.check);
    jf.set("detail", f.repro.detail);
    jf.set("trace_events", static_cast<int64_t>(f.repro.trace.n_events()));
    if (!f.repro_path.empty()) jf.set("repro_path", f.repro_path);
    findings.push(std::move(jf));
  }
  j.set("findings", std::move(findings));
  return j;
}

}  // namespace wmcast::chaos
