// The paper's centralized set-cover algorithms, run over a CoverageEngine +
// SolveWorkspace:
//
//  * greedy_cover  — CostSC, the cost-effectiveness greedy for weighted set
//    cover (Vazirani) behind Centralized MLA; (ln n + 1)-approximation.
//  * mcg_cover     — the Chekuri–Kumar greedy for Maximum Coverage with Group
//    Budgets (cost version, no overall budget) plus the H1/H2 split, behind
//    Centralized MNU (Fig. 3); 8-approximation (Theorem 2).
//  * scg_cover     — Set Cover with Group Budgets behind Centralized BLA
//    (Fig. 6): guess the optimal max-group-cost B*, then repeatedly run the
//    MCG greedy with per-group budget B* on the not-yet-covered elements;
//    each pass covers a constant fraction, so log_{8/7}(n)+1 passes suffice
//    (Theorem 4).
//  * layered_cover — the layering algorithm (Vazirani §2.2) the paper's §6.1
//    points to; an f-approximation.
//
// How they run:
//
//  * marginal gains are *maintained*, not recomputed — covering an element
//    decrements the exact gain of every set containing it through the
//    engine's inverted index, so the total maintenance work over a whole
//    solve is O(arena size);
//  * the lazy heap stores exact gains; an entry is stale iff its gain no
//    longer matches the maintained value (an O(1) check), and a fresh pop is
//    provably the argmax under the comparator below;
//  * ratios are compared by integer×cost cross products, never by divided
//    doubles, with ties broken toward the lower set id — so every solver is
//    exactly equal to an eager argmax reference (see setcover/reference.hpp)
//    and deterministic across platforms;
//  * all scratch lives in the caller's SolveWorkspace: repeated solves on a
//    warm engine perform no steady-state allocations beyond their results.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "wmcast/core/engine.hpp"
#include "wmcast/core/workspace.hpp"
#include "wmcast/util/bitset.hpp"

namespace wmcast::core {

/// True iff set a (gain_a, cost_a, id set_a) is a strictly better greedy pick
/// than set b: higher gain/cost ratio, ties to the lower set id. The ratios
/// are compared as cross products — gain_a * cost_b vs gain_b * cost_a — so
/// two sets with the exact same rational ratio always compare equal, which
/// divided doubles cannot promise.
///
/// The cross products are evaluated EXACTLY, in 128-bit integers over the
/// costs' (mantissa, exponent) decomposition. Rounded double products are
/// not transitive: with c = cost of a 1-member set, the trio (9, 9c), (3,
/// 3c), (1, c) can compare 9c-set < 3c-set < c-set < 9c-set, because each
/// product rounds at a different magnitude. A comparator that is not a
/// strict weak order makes std::make_heap/pop_heap behavior undefined — the
/// lazy-greedy heap then pops a context-dependent element at ties, so the
/// joint solve and the sharded per-session solves (core/parallel.hpp) could
/// commit different associations for the same instance. Found by the chaos
/// differential replayer (chaos/oracles.hpp); see tests/chaos tests.
/// better_pick over pre-decomposed costs (cost = mant * 2^(exp-53), the
/// frexp/ldexp decomposition below). The engine caches each set's (mant, exp)
/// at add_set time so the heap comparator never re-runs frexp in the hot
/// loop; the arithmetic is identical, so picks are bit-identical.
inline bool better_pick_decomposed(int32_t gain_a, int64_t ma, int32_t ea,
                                   int set_a, int32_t gain_b, int64_t mb,
                                   int32_t eb, int set_b) {
  if (gain_a > 0 || gain_b > 0) {
    if (gain_a <= 0) return false;  // b's ratio is positive, a's is not
    if (gain_b <= 0) return true;
    // gain * m fits in 31+53 bits, and the shift below stays under 127 bits,
    // so every comparison is exact.
    const __int128 lhs = static_cast<__int128>(gain_a) * mb;  // * 2^(eb-53)
    const __int128 rhs = static_cast<__int128>(gain_b) * ma;  // * 2^(ea-53)
    const int diff = eb - ea;
    if (diff > 43) return lhs != 0;    // lhs scale dominates any 84-bit rhs
    if (diff < -43) return rhs == 0;
    const __int128 l = diff > 0 ? lhs << diff : lhs;
    const __int128 r = diff < 0 ? rhs << -diff : rhs;
    if (l != r) return l > r;
  }
  return set_a < set_b;
}

inline bool better_pick(int32_t gain_a, double cost_a, int set_a,
                        int32_t gain_b, double cost_b, int set_b) {
  int64_t ma = 0;
  int64_t mb = 0;
  int32_t ea = 0;
  int32_t eb = 0;
  decompose_cost(cost_a, ma, ea);
  decompose_cost(cost_b, mb, eb);
  return better_pick_decomposed(gain_a, ma, ea, set_a, gain_b, mb, eb, set_b);
}

struct CoverResult {
  std::vector<int> chosen;  // set ids, selection order
  util::DynBitset covered;  // union of chosen sets' members
  double total_cost = 0.0;
  bool complete = false;  // every coverable target element covered
};

struct McgResult {
  std::vector<int> h;          // every set the greedy added, selection order
  std::vector<char> violator;  // h[k] pushed its group past the budget
  std::vector<int> h1;         // budget-respecting sets
  std::vector<int> h2;         // at most one violator per group
  std::vector<int> chosen;     // whichever of h1/h2 covers more of the target
  util::DynBitset covered;     // target elements covered by `chosen`
  util::DynBitset covered_h;   // target elements covered by the full h
};

struct ScgParams {
  /// Upper end of the B* search window (the paper uses 1, the whole airtime).
  double budget_cap = 1.0;
  /// Geometric grid points tried between the lower bound and budget_cap.
  int grid_points = 8;
  /// Bisection refinements after the grid scan.
  int refine_steps = 6;
  /// true (default): a group's spend carries over between MCG passes, so the
  /// final max group cost is bounded by B* itself and the B* search directly
  /// minimizes the objective. false: the paper's literal scheme — every pass
  /// gets a fresh budget of B* per group (final max bounded only by
  /// passes * B*, Theorem 4). Carrying over never violates the approximation
  /// guarantee because the returned solution is graded by its actual max
  /// group cost either way; DESIGN.md §5b discusses the deviation.
  bool carry_budgets = true;
};

struct ScgResult {
  std::vector<int> chosen;         // set ids, selection order
  util::DynBitset covered;
  bool feasible = false;           // all target elements covered
  double bstar = 0.0;              // the B* that produced `chosen`
  double max_group_cost = 0.0;     // max over groups of summed chosen costs
  std::vector<double> group_cost;  // per group
  int passes = 0;                  // MCG passes used by the winning run
};

struct LayeringResult {
  std::vector<int> chosen;  // sets picked across all layers
  util::DynBitset covered;
  double total_cost = 0.0;
  int layers = 0;
  bool complete = false;  // every coverable element covered
};

/// CostSC greedy. Targets all coverable elements, or coverable ∩ restrict_to
/// (SCG-style partial covers). Every pick is the eager argmax of gain/cost,
/// ties to the lower set id.
CoverResult greedy_cover(const CoverageEngine& eng, SolveWorkspace& ws,
                         const util::DynBitset* restrict_to = nullptr);

/// The MCG greedy with the H1/H2 split (one budget per group). If
/// `restrict_to` is non-null only those elements count as coverage targets
/// (SCG runs the greedy repeatedly on the shrinking remainder).
///
/// Deviations from the verbatim pseudo-code, both documented in DESIGN.md
/// §5b:
///  * sets whose own cost exceeds their group budget are never selected (the
///    paper assumes c(S) <= B_i for the H2 feasibility argument);
///  * zero-gain sets are never selected (the literal pseudo-code could burn
///    group budgets on sets that cover nothing).
McgResult mcg_cover(const CoverageEngine& eng, SolveWorkspace& ws,
                    std::span<const double> group_budgets,
                    const util::DynBitset* restrict_to = nullptr);

/// Allocation-reusing form: clears `res` and solves into it, keeping the
/// capacity of its vectors and bitsets. SCG's budget search calls this once
/// per pass — dozens of times per solve — with one reused result.
void mcg_cover_into(const CoverageEngine& eng, SolveWorkspace& ws,
                    std::span<const double> group_budgets,
                    const util::DynBitset* restrict_to, McgResult& res);

/// Greedy augmentation after the H1/H2 split: repeatedly adds the most
/// cost-effective set that (a) covers something new and (b) fits entirely
/// within its group's remaining budget — no violators this time. Extends
/// `covered` and `group_cost` in place and returns the sets it added.
/// Coverage only grows and budgets stay respected, so running this after the
/// MCG greedy preserves the 8-approximation of Centralized MNU while
/// recovering coverage the discarded half left behind (practical refinement;
/// see DESIGN.md).
std::vector<int> mcg_augment(const CoverageEngine& eng, SolveWorkspace& ws,
                             std::span<const double> group_budgets,
                             std::span<double> group_cost, util::DynBitset& covered,
                             const util::DynBitset* restrict_to = nullptr);

/// SCG: B* is searched over a geometric grid between the instance lower bound
/// and params.budget_cap, refined by bisection, and the best feasible result
/// is kept. Targets all coverable elements, or coverable ∩ restrict_to (the
/// sharded per-session path restricts each solve to one shard's elements).
ScgResult scg_cover(const CoverageEngine& eng, SolveWorkspace& ws,
                    const ScgParams& params = {},
                    const util::DynBitset* restrict_to = nullptr);

/// Vazirani layering over the whole coverable ground set. Each layer peels
/// off a degree-weighted portion of every residual set's cost; sets whose
/// residual cost hits zero join the cover, covered elements leave the ground
/// set, and the next layer recurses on what remains. An f-approximation,
/// where f = max_element_frequency(eng): for the WLAN reduction, the largest
/// number of candidate (AP, rate) transmissions any one user appears in, so
/// the bound is a constant when every user hears a bounded number of APs
/// (§6.1).
LayeringResult layered_cover(const CoverageEngine& eng, SolveWorkspace& ws);

/// Max number of sets any coverable element appears in (the layering
/// algorithm's approximation factor f).
int max_element_frequency(const CoverageEngine& eng);

/// max over coverable e in `target` of the min cost of a set containing
/// e — the smallest per-group budget at which every target element has some
/// affordable set (SCG's search floor, restricted to one shard).
double min_feasible_budget_for(const CoverageEngine& eng,
                               const util::DynBitset& target);

}  // namespace wmcast::core
