// Seeded over-budget starts and an FNV-1a digest, shared by the tests that pin
// the budget peel, greedy re-place, hill climb and distributed rounds decision
// for decision (RepairShard.DecisionsArePinned, LocalSearch.DecisionsArePinned,
// DistributedRounds.DecisionsArePinned).
//
// Each start is an MLA-C association solved at the default 0.9 budget and
// carried into the same network at a budget of 0.25-0.34, so the peel has APs
// to evict from before any search runs.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "wmcast/assoc/centralized.hpp"
#include "wmcast/util/fp.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/association.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::test {

struct OverBudgetStart {
  wlan::Scenario sc;        // the tightened network
  wlan::Association start;  // MLA-C's association at budget 0.9
};

inline std::vector<OverBudgetStart> over_budget_starts(int count = 40) {
  std::vector<OverBudgetStart> out;
  for (int i = 0; i < count; ++i) {
    util::Rng rng(7100 + static_cast<uint64_t>(i));
    wlan::GeneratorParams gp;
    gp.n_aps = rng.uniform_int(20, 26);
    gp.n_users = rng.uniform_int(127, 400);
    gp.n_sessions = 4;
    // Every fourth network is sparse, so the repair splits into many tasks.
    gp.area_side_m = i % 4 == 3 ? 1400.0 : 500.0;
    const auto loose = wlan::generate_scenario(gp, rng);
    const auto sol = assoc::centralized_mla(loose);
    out.push_back({loose.with_budget(0.25 + 0.01 * (i % 10)), sol.assoc});
  }
  return out;
}

/// APs whose load under `s.start` exceeds the tightened budget.
inline int over_budget_aps(const OverBudgetStart& s) {
  const auto loads = wlan::compute_loads(s.sc, s.start);
  int n = 0;
  for (const double l : loads.ap_load) n += util::exceeds_budget(l, s.sc.load_budget());
  return n;
}

/// 64-bit FNV-1a over the bytes of the values added; doubles by bit pattern.
class Fnv1a {
 public:
  void add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(int v) { add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void add(bool v) { add(static_cast<uint64_t>(v)); }
  void add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::vector<int>& v) {
    add(static_cast<uint64_t>(v.size()));
    for (const int x : v) add(x);
  }
  void add(const std::string& s) {
    add(static_cast<uint64_t>(s.size()));
    for (const char c : s) add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

}  // namespace wmcast::test
