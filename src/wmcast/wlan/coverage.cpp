#include "wmcast/wlan/coverage.hpp"

#include <algorithm>

#include "wmcast/util/assert.hpp"

namespace wmcast::wlan {

CoverageReport analyze_coverage(const Scenario& sc, int histogram_buckets) {
  util::require(histogram_buckets >= 2, "analyze_coverage: need at least two buckets");

  CoverageReport rep;
  rep.aps_per_user_histogram.assign(static_cast<size_t>(histogram_buckets), 0);

  // Best-rate histogram keyed by the scenario's rate-level index: every link
  // stores its rate as an index into rate_levels(), so a flat count array
  // gives the ascending output order with no per-user search.
  const std::vector<double>& levels = sc.rate_levels();
  std::vector<int> best_rate_count(levels.size(), 0);
  int64_t ap_count_sum = 0;
  for (int u = 0; u < sc.n_users(); ++u) {
    const int k = static_cast<int>(sc.aps_of_user(u).size());
    if (k == 0) {
      ++rep.uncoverable_users;
    } else {
      ++rep.coverable_users;
      // Rows are strongest-first, so the best rate is entry 0.
      ++best_rate_count[static_cast<size_t>(sc.rates_of_user(u).level(0))];
    }
    ap_count_sum += k;
    rep.max_aps_per_user = std::max(rep.max_aps_per_user, k);
    const int bucket = std::min(k, histogram_buckets - 1);
    ++rep.aps_per_user_histogram[static_cast<size_t>(bucket)];
  }
  rep.mean_aps_per_user =
      sc.n_users() > 0 ? static_cast<double>(ap_count_sum) / sc.n_users() : 0.0;

  for (size_t i = 0; i < levels.size(); ++i) {
    if (best_rate_count[i] == 0) continue;  // keep only-present-rates output
    rep.best_rate_values.push_back(levels[i]);
    rep.best_rate_counts.push_back(best_rate_count[i]);
  }

  int64_t user_count_sum = 0;
  for (int a = 0; a < sc.n_aps(); ++a) {
    const int k = static_cast<int>(sc.users_of_ap(a).size());
    user_count_sum += k;
    rep.max_users_per_ap = std::max(rep.max_users_per_ap, k);
    if (k == 0) ++rep.idle_aps;
  }
  rep.mean_users_per_ap =
      sc.n_aps() > 0 ? static_cast<double>(user_count_sum) / sc.n_aps() : 0.0;
  return rep;
}

}  // namespace wmcast::wlan
