#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "wmcast/util/rng.hpp"

namespace perfbench {

namespace {

using wmcast::serve::WorkloadProfile;

// Mobility only: the hotspot profile's drift and joins/leaves/zaps, with the
// 5% stream-rate changes removed (each one dirties every subscriber of a
// session, 1/8 of the network, and would hide the O(dirty) epoch).
WorkloadProfile mobility_profile() {
  WorkloadProfile p = WorkloadProfile::named("hotspot");
  p.rate_change_weight = 0.0;
  return p;
}

// Stationary mobility: the steady profile's Gaussian random-walk moves,
// zaps, joins and leaves, without rate changes. The 10k-user leg of
// plan_cold replays about 2.5 events per user, under which the hotspot
// profile gathers most users into one cloud and the seed decides how fast.
WorkloadProfile random_walk_profile() {
  WorkloadProfile p = WorkloadProfile::named("steady");
  p.rate_change_weight = 0.0;
  return p;
}

// Correlated join storms, leaves, zaps and rate changes. Storms are made
// smaller and more frequent than the named profile's (0.5/s of 2% of the
// slots) so a run of a few seconds sees enough of them for its latency tail
// to repeat from seed to seed.
WorkloadProfile flash_profile() {
  WorkloadProfile p = WorkloadProfile::named("flash");
  p.flash_prob_per_s = 5.0;
  p.flash_size_frac = 0.0001;
  return p;
}

std::vector<WorkloadSpec> make_table() {
  std::vector<WorkloadSpec> t;
  {
    WorkloadSpec w;
    w.name = "plan_cold";
    w.plan_net = {1000000, 20000};
    w.serve.net = {10000, 200};
    w.serve.profile = random_walk_profile();
    w.serve.rate_eps = 1000.0;
    w.plan_share = 0.8;
    w.fixed_share = 0.1;
    w.saturation_share = 0.15;
    w.nominal_plan_pair_s = 6.6;
    w.nominal_capacity_eps = 11000.0;
    t.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "serve_mobility";
    w.serve.net = {100000, 2000};
    w.serve.profile = mobility_profile();
    w.serve.rate_eps = 200.0;
    w.plan_share = 0.3;
    w.fixed_share = 0.55;
    w.saturation_share = 0.2;
    w.nominal_plan_pair_s = 0.55;
    w.nominal_capacity_eps = 850.0;
    t.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "serve_flash_k2";
    w.serve.net = {100000, 2000};
    w.serve.k = 2;
    w.serve.threads = 2;
    w.serve.pipeline = true;
    w.serve.profile = flash_profile();
    w.serve.rate_eps = 60.0;
    w.plan_share = 0.3;
    w.fixed_share = 0.6;
    w.saturation_share = 0.2;
    w.nominal_plan_pair_s = 0.55;
    w.nominal_capacity_eps = 500.0;
    t.push_back(w);
  }
  return t;
}

}  // namespace

int WorkloadSpec::plan_reps(double seconds) const {
  return std::max(3,
                  static_cast<int>(std::lround(plan_share * seconds / nominal_plan_pair_s)));
}

int WorkloadSpec::saturation_rounds(double seconds, int chunk) const {
  const double round_s = chunk / nominal_capacity_eps;
  return std::max(1, static_cast<int>(std::lround(saturation_share * seconds / round_s)));
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> table = make_table();
  return table;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

NetworkInputs make_inputs(const NetworkSize& size, uint64_t seed) {
  const wmcast::wlan::RateTable table = wmcast::wlan::RateTable::ieee80211a();
  const double r = table.range_m();
  // degree = (aps / side^2) * pi * r^2  =>  the side that fixes the degree.
  const double side = std::sqrt(static_cast<double>(size.aps) * 3.14159265358979323846 *
                                r * r / kMeanDegree);
  wmcast::util::Rng rng(seed);
  NetworkInputs in;
  in.ap_pos.resize(static_cast<size_t>(size.aps));
  for (auto& p : in.ap_pos) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  in.user_pos.resize(static_cast<size_t>(size.users));
  for (auto& p : in.user_pos) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  in.user_session.resize(static_cast<size_t>(size.users));
  for (auto& s : in.user_session) s = rng.next_int(kSessions);
  in.session_rates.assign(static_cast<size_t>(kSessions), kStreamRate);
  return in;
}

wmcast::wlan::Scenario build_scenario(const NetworkInputs& in,
                                      wmcast::util::ThreadPool* pool) {
  return wmcast::wlan::Scenario::from_geometry(
      in.ap_pos, in.user_pos, in.user_session, in.session_rates,
      wmcast::wlan::RateTable::ieee80211a(), kBudget, pool);
}

}  // namespace perfbench
