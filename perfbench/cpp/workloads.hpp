// The benchmark's workload table and input generation. Every input a run
// consumes — node positions, session choices, the event stream — is a pure
// function of (workload, seed) and is generated before any timed region.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wmcast/serve/workload.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/geometry.hpp"
#include "wmcast/wlan/rate_table.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace perfbench {

/// Geometry shared by every workload (the scale_build / serve_load regime):
/// the area side is derived from the AP count so each user hears about
/// kMeanDegree APs at any size.
inline constexpr double kMeanDegree = 20.0;
inline constexpr int kSessions = 8;
inline constexpr double kStreamRate = 1.0;  // Mbps per session
inline constexpr double kBudget = 0.9;      // per-AP multicast load budget

struct NetworkSize {
  int users = 0;
  int aps = 0;
};

/// The serving side of a workload: a controller behind a ServeLoop, fed an
/// open-loop stream at a fixed rate, then saturated.
struct ServeSpec {
  NetworkSize net;
  int k = 1;                   // ControllerConfig::k
  int threads = 1;             // controller pool lanes (and scenario build)
  bool pipeline = false;       // ServeConfig::pipeline
  wmcast::serve::WorkloadProfile profile;
  double rate_eps = 200.0;     // offered events/s in the fixed-rate phase
};

struct WorkloadSpec {
  std::string name;  // why each workload exists: perfbench/README.md
  /// Network the cold planners run on; empty (0 users) = the serving
  /// network's initial scenario (no second build).
  NetworkSize plan_net;
  ServeSpec serve;
  /// Shares of --seconds given to the plan phase (repeated cold solves), the
  /// fixed-rate stream (virtual seconds of arrivals) and the saturation
  /// phase. The plan and saturation phases turn their share into a fixed
  /// amount of work through the nominal costs below (measured on a 4-core
  /// Xeon VM, one thread), so a run does the same work on any machine and
  /// its memory and end state do not depend on how fast it ran.
  double plan_share = 0.0;
  double fixed_share = 0.0;
  double saturation_share = 0.0;
  double nominal_plan_pair_s = 1.0;  // one cold MLA + one cold MNU
  double nominal_capacity_eps = 1000.0;

  bool plan_on_serve_net() const { return plan_net.users == 0; }
  /// At least 3, so the medians have a middle sample.
  int plan_reps(double seconds) const;
  int saturation_rounds(double seconds, int chunk) const;
};

/// All workloads, in documentation order.
const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

/// Raw geometric inputs of one network.
struct NetworkInputs {
  std::vector<wmcast::wlan::Point> ap_pos;
  std::vector<wmcast::wlan::Point> user_pos;
  std::vector<int> user_session;
  std::vector<double> session_rates;
};

NetworkInputs make_inputs(const NetworkSize& size, uint64_t seed);

/// Scenario::from_geometry over the inputs (the call setup_s times).
wmcast::wlan::Scenario build_scenario(const NetworkInputs& in,
                                      wmcast::util::ThreadPool* pool);

}  // namespace perfbench
