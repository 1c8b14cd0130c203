// Naive eager reference implementations of the set-cover solvers, retained
// for the randomized equivalence suite (tests/fuzz_invariants_test.cpp):
// every pick scans all sets and takes the argmax of gain/cost under the same
// cross-product comparator (core::better_pick) the engine solvers use, with
// ties broken toward the lower set index.
//
// The engine-backed solvers in core/solve.hpp must produce *identical* chosen
// sequences and objective values — these references are the spec they are
// tested against, deliberately simple and allocation-heavy.
#pragma once

#include <span>

#include "wmcast/core/solve.hpp"
#include "wmcast/setcover/set_system.hpp"

namespace wmcast::setcover {

core::CoverResult greedy_set_cover_reference(const SetSystem& sys,
                                             const util::DynBitset* restrict_to = nullptr);

core::McgResult mcg_greedy_reference(const SetSystem& sys,
                                     std::span<const double> group_budgets,
                                     const util::DynBitset* restrict_to = nullptr);

core::ScgResult scg_solve_reference(const SetSystem& sys, const core::ScgParams& params = {});

}  // namespace wmcast::setcover
