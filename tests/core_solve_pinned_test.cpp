// Pins the pick order of every lazy-greedy heap loop in core/solve.cpp: the
// CostSC greedy, the MCG greedy and its H1/H2 split, the budget-respecting
// augmentation, SCG's repeated MCG passes, MNU's top-up and the sharded
// per-session greedy, plus the associations of Centralized MNU and BLA. The
// instances are large enough that each loop takes its wholesale heap rebuild.
// Every instance folds all of its picks into one FNV-1a digest, so a change to
// the heap protocol, the budget tests or the commit step must reproduce them
// exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pinned_starts.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/core/parallel.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/setcover/set_system.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::core {
namespace {

void add_bits(test::Fnv1a& h, const util::DynBitset& b) { h.add(b.to_indices()); }

void add_flags(test::Fnv1a& h, const std::vector<char>& v) {
  h.add(static_cast<uint64_t>(v.size()));
  for (const char c : v) h.add(static_cast<int>(c));
}

void add_mcg(test::Fnv1a& h, const McgResult& m) {
  h.add(m.h);
  add_flags(h, m.violator);
  h.add(m.chosen);
  add_bits(h, m.covered);
}

/// Per-group budgets at `level` times the instance's feasibility floor,
/// staggered across groups so some budgets bind and others do not.
std::vector<double> budgets_at(const CoverageEngine& eng, double level) {
  std::vector<double> b(static_cast<size_t>(eng.n_groups()));
  for (int g = 0; g < eng.n_groups(); ++g) {
    b[static_cast<size_t>(g)] =
        level * eng.min_feasible_budget() * (0.75 + 0.125 * (g % 5));
  }
  return b;
}

/// Every core solver's picks on `eng`, serial and sharded.
void digest_solvers(const CoverageEngine& eng, uint64_t seed, test::Fnv1a& h) {
  SolveWorkspace ws;
  util::Rng rng(seed);
  util::DynBitset half(eng.n_elements());
  for (int e = 0; e < eng.n_elements(); ++e) {
    if (rng.next_bool(0.5)) half.set(e);
  }

  const util::DynBitset* const targets[] = {nullptr, &half};
  for (const util::DynBitset* restrict_to : targets) {
    const auto g = greedy_cover(eng, ws, restrict_to);
    h.add(g.chosen);
    h.add(g.total_cost);
    h.add(g.complete);
  }

  for (const double level : {1.0, 3.0}) {
    const auto budgets = budgets_at(eng, level);
    const auto m = mcg_cover(eng, ws, budgets);
    add_mcg(h, m);
    std::vector<double> spent(static_cast<size_t>(eng.n_groups()), 0.0);
    for (const int j : m.chosen) spent[static_cast<size_t>(eng.group(j))] += eng.cost(j);
    util::DynBitset covered = m.covered;
    h.add(mcg_augment(eng, ws, budgets, spent, covered));
    for (const double c : spent) h.add(c);
  }

  const auto s = scg_cover(eng, ws);
  h.add(s.chosen);
  h.add(s.bstar);
  h.add(s.feasible);
  h.add(s.passes);

  SessionShards shards;
  shards.build(eng);
  for (const int threads : {1, 4}) {
    util::ThreadPool pool(threads);
    ShardWorkspaces wss;
    const auto pg = parallel_greedy_cover(eng, pool, wss, shards);
    h.add(pg.chosen);
    h.add(pg.total_cost);
    h.add(pg.complete);
  }
}

/// A random weighted, grouped set system: a few hundred sets of up to 40
/// members over a coarse cost grid, so ratio ties occur.
setcover::SetSystem random_system(util::Rng& rng) {
  const int n_elements = 400 + rng.next_int(600);
  const int n_groups = 8 + rng.next_int(24);
  const int n_sets = 300 + rng.next_int(700);
  std::vector<setcover::CandidateSet> sets;
  for (int j = 0; j < n_sets; ++j) {
    setcover::CandidateSet s;
    s.members = util::DynBitset(n_elements);
    const int degree = 1 + rng.next_int(40);
    for (int k = 0; k < degree; ++k) s.members.set(rng.next_int(n_elements));
    s.group = rng.next_int(n_groups);
    s.ap = s.group;
    s.session = rng.next_int(4);
    s.cost = 0.0625 * (1 + rng.next_int(32));
    sets.push_back(std::move(s));
  }
  return setcover::SetSystem(n_elements, n_groups, std::move(sets));
}

TEST(CoreSolvePinned, WlanEnginePicksArePinned) {
  // Seeds 1-6, each projected with multi-rate on and off.
  constexpr uint64_t kDigest[6][2] = {
      {0xc91d63a2ef7894d4ull, 0xdfb72fc7dae5c4beull},
      {0x77de5a54b1fa02abull, 0xa202da48fc037ea9ull},
      {0x588dbbea96fdb319ull, 0x5365579e4bd24c0cull},
      {0x4c7982f7556e4ca1ull, 0x306b18a4512fa625ull},
      {0x08bc97a3301ec400ull, 0x5d885c30a2c7b723ull},
      {0xaef012d4cbdec9abull, 0x6ded6d67a3908bf3ull},
  };
  for (int seed = 1; seed <= 6; ++seed) {
    wlan::GeneratorParams gp;
    gp.n_aps = 200;
    gp.n_users = 2000;
    gp.n_sessions = 6;
    util::Rng rng(static_cast<uint64_t>(seed));
    const auto sc = wlan::generate_scenario(gp, rng);
    for (const bool multi_rate : {true, false}) {
      CoverageEngine eng;
      setcover::build_engine(sc, multi_rate, eng);
      test::Fnv1a h;
      digest_solvers(eng, 500 + static_cast<uint64_t>(seed), h);
      assoc::CentralizedParams cp;
      cp.multi_rate = multi_rate;
      cp.mnu_augment = true;
      h.add(assoc::centralized_mnu(sc, cp).assoc.user_ap);
      h.add(assoc::centralized_bla(sc, cp).assoc.user_ap);
      EXPECT_EQ(h.value(), kDigest[seed - 1][multi_rate ? 0 : 1])
          << "seed " << seed << " multi_rate " << multi_rate << std::hex << ": 0x"
          << h.value();
    }
  }
}

TEST(CoreSolvePinned, RandomSetSystemPicksArePinned) {
  constexpr uint64_t kDigest[6] = {
      0xed912a983768a7b4ull, 0x12c94c9140680213ull, 0x04c27fdb1bb86b33ull,
      0x276bb6ec231f2dfdull, 0x3328b898c66c2828ull, 0x6f2e477d9362bfd4ull,
  };
  for (int i = 0; i < 6; ++i) {
    util::Rng rng(9100 + static_cast<uint64_t>(i));
    const auto eng = setcover::to_engine(random_system(rng));
    test::Fnv1a h;
    digest_solvers(eng, 600 + static_cast<uint64_t>(i), h);
    EXPECT_EQ(h.value(), kDigest[i]) << "system " << i << std::hex << ": 0x" << h.value();
  }
}

}  // namespace
}  // namespace wmcast::core
