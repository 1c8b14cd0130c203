#include "wmcast/assoc/registry.hpp"

#include <algorithm>

#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/assoc/kconn.hpp"
#include "wmcast/assoc/local_search.hpp"
#include "wmcast/assoc/single_session.hpp"
#include "wmcast/assoc/ssa.hpp"
#include "wmcast/util/assert.hpp"

namespace wmcast::assoc {

const std::vector<std::string>& algorithm_names() {
  static const std::vector<std::string> kNames = {
      "ssa",   "mla-c", "bla-c",        "mnu-c",        "mla-d",       "bla-d",
      "mnu-d", "lock-d", "local-search", "mnu-1session", "bla-1session"};
  return kNames;
}

bool is_algorithm(const std::string& name) {
  const auto& names = algorithm_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

Solution solve_by_name(const std::string& name, const wlan::Scenario& sc,
                       util::Rng& rng, const SolveOptions& options) {
  util::require(options.k >= 1, "solve_by_name: k must be >= 1");
  CentralizedParams cp;
  cp.multi_rate = options.multi_rate;
  cp.k = options.k;
  DistributedParams dp;
  dp.multi_rate = options.multi_rate;
  // The distributed / lock / single-session protocols are inherently
  // single-AP: every user decision picks exactly one AP.
  const bool single_ap_only = name == "mla-d" || name == "bla-d" || name == "mnu-d" ||
                              name == "lock-d" || name == "mnu-1session" ||
                              name == "bla-1session";
  util::require(options.k == 1 || !single_ap_only,
                "solve_by_name: '" + name + "' does not support k >= 2");

  if (name == "ssa") {
    SsaParams sp;
    sp.multi_rate = options.multi_rate;
    sp.k = options.k;
    return ssa_associate(sc, rng, sp);
  }
  if (name == "mla-c") return centralized_mla(sc, cp);
  if (name == "bla-c") return centralized_bla(sc, cp);
  if (name == "mnu-c") return centralized_mnu(sc, cp);
  if (name == "mla-d") {
    dp.objective = Objective::kTotalLoad;
    Solution sol = distributed_associate(sc, rng, dp);
    sol.algorithm = "MLA-D";
    return sol;
  }
  if (name == "bla-d") {
    dp.objective = Objective::kLoadVector;
    Solution sol = distributed_associate(sc, rng, dp);
    sol.algorithm = "BLA-D";
    return sol;
  }
  if (name == "mnu-d") {
    dp.objective = Objective::kTotalLoad;
    Solution sol = distributed_associate(sc, rng, dp);
    sol.algorithm = "MNU-D";
    return sol;
  }
  if (name == "lock-d") {
    dp.mode = UpdateMode::kLocked;
    return distributed_associate(sc, rng, dp);
  }
  if (name == "local-search") {
    const Solution start = ssa_associate(sc, rng);
    LocalSearchParams lp;
    lp.multi_rate = options.multi_rate;
    Solution sol = local_search(sc, start.assoc, lp);
    if (options.k >= 2) {
      KconnParams kp;
      kp.k = options.k;
      kp.multi_rate = options.multi_rate;
      finalize_kconn(sc, sol, kp);
    }
    return sol;
  }
  if (name == "mnu-1session") return single_session_mnu(sc);
  if (name == "bla-1session") return single_session_bla(sc);

  util::require(false, "solve_by_name: unknown algorithm '" + name + "'");
  return {};  // unreachable
}

}  // namespace wmcast::assoc
