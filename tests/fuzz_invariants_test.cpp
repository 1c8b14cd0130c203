// Randomized invariant sweep ("fuzz light"): many random scenarios of varied
// shape, every algorithm, a fixed battery of invariants that must hold on
// each. Catches cross-module regressions the targeted tests miss.
#include <gtest/gtest.h>

#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/assoc/local_search.hpp"
#include "wmcast/assoc/ssa.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/setcover/reference.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"
#include "wmcast/wlan/serialization.hpp"

namespace wmcast {
namespace {

struct FuzzCase {
  uint64_t seed;
  wlan::GeneratorParams params;
};

std::vector<FuzzCase> make_cases() {
  std::vector<FuzzCase> cases;
  util::Rng meta(20260706);
  for (int i = 0; i < 12; ++i) {
    FuzzCase c;
    c.seed = meta.next_u64();
    c.params.n_aps = 2 + meta.next_int(30);
    c.params.n_users = 1 + meta.next_int(80);
    c.params.n_sessions = 1 + meta.next_int(8);
    c.params.area_side_m = 150.0 + meta.uniform(0.0, 800.0);
    c.params.session_rate_mbps = 0.25 + meta.uniform(0.0, 2.0);
    c.params.load_budget = 0.05 + meta.uniform(0.0, 0.85);
    c.params.zipf_exponent = meta.next_bool(0.3) ? meta.uniform(0.5, 2.0) : 0.0;
    c.params.hotspot_fraction = meta.next_bool(0.3) ? meta.uniform(0.2, 1.0) : 0.0;
    cases.push_back(c);
  }
  return cases;
}

class FuzzInvariants : public testing::TestWithParam<int> {};

void check_solution(const wlan::Scenario& sc, const assoc::Solution& sol,
                    bool must_respect_budget) {
  // 1. Every served user is in range of its AP (compute_loads would throw
  //    otherwise; make_solution already ran it — recompute defensively).
  const auto rep = wlan::compute_loads(sc, sol.assoc);
  // 2. The stored report matches a recomputation (no stale caching).
  EXPECT_NEAR(rep.total_load, sol.loads.total_load, 1e-9);
  EXPECT_EQ(rep.satisfied_users, sol.loads.satisfied_users);
  // 3. Budget feasibility when the algorithm promises it.
  if (must_respect_budget) {
    EXPECT_TRUE(rep.within_budget());
  }
  // 4. Served count never exceeds the coverable population.
  EXPECT_LE(rep.satisfied_users, sc.n_coverable_users());
  // 5. Loads are non-negative and max <= total.
  EXPECT_GE(rep.total_load, -1e-12);
  EXPECT_LE(rep.max_load, rep.total_load + 1e-9);
}

TEST_P(FuzzInvariants, AllAlgorithmsAllInvariants) {
  const auto cases = make_cases();
  const auto& c = cases[static_cast<size_t>(GetParam())];
  util::Rng rng(c.seed);
  const auto sc = wlan::generate_scenario(c.params, rng);

  util::Rng r1(c.seed + 1);
  check_solution(sc, assoc::ssa_associate(sc, r1), true);
  check_solution(sc, assoc::centralized_mnu(sc), true);

  // MLA/BLA serve everyone coverable but may exceed tight budgets by design
  // (the paper's BLA/MLA setting assumes demand fits; with a random tight
  // budget feasibility is not guaranteed).
  const auto mla = assoc::centralized_mla(sc);
  check_solution(sc, mla, false);
  EXPECT_EQ(mla.loads.satisfied_users, sc.n_coverable_users());
  const auto bla = assoc::centralized_bla(sc);
  check_solution(sc, bla, false);
  EXPECT_EQ(bla.loads.satisfied_users, sc.n_coverable_users());

  util::Rng r2(c.seed + 2);
  const auto dmla = assoc::distributed_mla(sc, r2);
  check_solution(sc, dmla, true);
  EXPECT_TRUE(dmla.converged);
  util::Rng r3(c.seed + 3);
  const auto dbla = assoc::distributed_bla(sc, r3);
  check_solution(sc, dbla, true);
  EXPECT_TRUE(dbla.converged);

  util::Rng r4(c.seed + 4);
  assoc::DistributedParams lp;
  lp.mode = assoc::UpdateMode::kLocked;
  const auto locked = assoc::distributed_associate(sc, r4, lp);
  check_solution(sc, locked, true);
  EXPECT_TRUE(locked.converged);

  // Local search from SSA: lexicographically never worse — it serves at
  // least as many users, and with equal service the total load cannot rise.
  util::Rng r5(c.seed + 5);
  const auto ssa2 = assoc::ssa_associate(sc, r5);
  const auto polished = assoc::local_search(sc, ssa2.assoc, {});
  check_solution(sc, polished, true);
  EXPECT_GE(polished.loads.satisfied_users, ssa2.loads.satisfied_users);
  if (polished.loads.satisfied_users == ssa2.loads.satisfied_users) {
    EXPECT_LE(polished.loads.total_load, ssa2.loads.total_load + 1e-9);
  }

  // Set-cover layer: greedy and layering both produce complete covers.
  const auto sys = setcover::build_set_system(sc);
  EXPECT_EQ(sys.coverable().count(), sc.n_coverable_users());
  const core::CoverageEngine eng = setcover::to_engine(sys);
  core::SolveWorkspace ws;
  const auto greedy = core::greedy_cover(eng, ws);
  EXPECT_TRUE(greedy.complete);
  const auto layered = core::layered_cover(eng, ws);
  EXPECT_TRUE(layered.complete);

  // Serialization round trip preserves algorithm behavior exactly.
  const auto restored = wlan::from_text(wlan::to_text(sc));
  EXPECT_EQ(assoc::centralized_mla(restored).assoc, mla.assoc);

  // Determinism: same seed, same answer.
  util::Rng r6a(c.seed + 6);
  util::Rng r6b(c.seed + 6);
  EXPECT_EQ(assoc::distributed_mla(sc, r6a).assoc, assoc::distributed_mla(sc, r6b).assoc);
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, FuzzInvariants, testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Engine-vs-reference equivalence suite: the engine-backed solvers must match
// the retained naive eager references *exactly* — identical chosen sequences
// and bitwise-identical objective values — across hundreds of seeded
// instances. Any drift in gain maintenance, heap staleness handling, or
// tie-breaking shows up here.

/// A random weighted grouped set system; half synthetic (arbitrary costs and
/// overlaps), half projected from a random scenario (the shape the paper's
/// reduction produces).
setcover::SetSystem random_system(util::Rng& rng) {
  if (rng.next_bool(0.5)) {
    wlan::GeneratorParams p;
    p.n_aps = 2 + rng.next_int(10);
    p.n_users = 1 + rng.next_int(40);
    p.n_sessions = 1 + rng.next_int(5);
    p.area_side_m = 150.0 + rng.uniform(0.0, 600.0);
    p.session_rate_mbps = 0.25 + rng.uniform(0.0, 2.0);
    return setcover::build_set_system(wlan::generate_scenario(p, rng));
  }
  const int n_elements = 1 + rng.next_int(50);
  const int n_groups = 1 + rng.next_int(8);
  const int n_sets = 1 + rng.next_int(90);
  std::vector<setcover::CandidateSet> sets;
  for (int j = 0; j < n_sets; ++j) {
    setcover::CandidateSet s;
    s.members = util::DynBitset(n_elements);
    const int degree = 1 + rng.next_int(std::min(n_elements, 12));
    for (int k = 0; k < degree; ++k) s.members.set(rng.next_int(n_elements));
    s.group = rng.next_int(n_groups);
    s.ap = s.group;
    s.session = rng.next_int(3);
    s.tx_rate = 6.0 * (1 + rng.next_int(9));
    // Coarse cost grid so cross-product ratio ties actually occur and the
    // deterministic lower-index tie-break gets exercised.
    s.cost = 0.125 * (1 + rng.next_int(16));
    sets.push_back(std::move(s));
  }
  return setcover::SetSystem(n_elements, n_groups, std::move(sets));
}

class EngineEquivalence : public testing::TestWithParam<int> {};

TEST_P(EngineEquivalence, MatchesNaiveReferenceExactly) {
  // 8 shards x 28 instances = 224 seeded instances.
  util::Rng rng(0x9e3779b9u + static_cast<uint64_t>(GetParam()) * 1000003u);
  for (int i = 0; i < 28; ++i) {
    const auto sys = random_system(rng);

    // Optional restriction target (exercises SCG-style partial covers).
    util::DynBitset target(sys.n_elements());
    for (int e = 0; e < sys.n_elements(); ++e) {
      if (rng.next_bool(0.7)) target.set(e);
    }
    const util::DynBitset* restrict_to = rng.next_bool(0.5) ? &target : nullptr;
    const core::CoverageEngine eng = setcover::to_engine(sys);
    core::SolveWorkspace ws;

    // Greedy (CostSC).
    const auto g_eng = core::greedy_cover(eng, ws, restrict_to);
    const auto g_ref = setcover::greedy_set_cover_reference(sys, restrict_to);
    ASSERT_EQ(g_eng.chosen, g_ref.chosen);
    EXPECT_EQ(g_eng.total_cost, g_ref.total_cost);
    EXPECT_EQ(g_eng.covered, g_ref.covered);
    EXPECT_EQ(g_eng.complete, g_ref.complete);

    // MCG with random per-group budgets.
    std::vector<double> budgets(static_cast<size_t>(sys.n_groups()));
    for (auto& b : budgets) b = rng.uniform(0.05, 2.5);
    const auto m_eng = core::mcg_cover(eng, ws, budgets, restrict_to);
    const auto m_ref = setcover::mcg_greedy_reference(sys, budgets, restrict_to);
    ASSERT_EQ(m_eng.h, m_ref.h);
    EXPECT_EQ(m_eng.violator, m_ref.violator);
    EXPECT_EQ(m_eng.h1, m_ref.h1);
    EXPECT_EQ(m_eng.h2, m_ref.h2);
    ASSERT_EQ(m_eng.chosen, m_ref.chosen);
    EXPECT_EQ(m_eng.covered, m_ref.covered);

    // SCG (full budget search: grid + bisection over repeated MCG passes).
    core::ScgParams sp;
    sp.carry_budgets = rng.next_bool(0.7);
    const auto s_eng = core::scg_cover(eng, ws, sp);
    const auto s_ref = setcover::scg_solve_reference(sys, sp);
    ASSERT_EQ(s_eng.chosen, s_ref.chosen);
    EXPECT_EQ(s_eng.feasible, s_ref.feasible);
    EXPECT_EQ(s_eng.bstar, s_ref.bstar);
    EXPECT_EQ(s_eng.max_group_cost, s_ref.max_group_cost);
    EXPECT_EQ(s_eng.group_cost, s_ref.group_cost);
    EXPECT_EQ(s_eng.passes, s_ref.passes);
  }
}

INSTANTIATE_TEST_SUITE_P(SeededInstances, EngineEquivalence, testing::Range(0, 8));

}  // namespace
}  // namespace wmcast
