#include "wmcast/core/solve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "wmcast/util/assert.hpp"
#include "wmcast/util/fp.hpp"

namespace wmcast::core {

namespace {

constexpr double kTol = 1e-12;  // layering: a residual cost this small is spent

/// Fast-path margin for the double cross-product comparison below. Each
/// product carries one rounding (relative error <= u = 2^-53); a computed
/// gap beyond (1+u)/(1-u)^2 - 1 ~ 3u guarantees the exact comparison
/// agrees. 1e-15 ~ 9u leaves slack — anything closer takes the exact path.
constexpr double kRatioMargin = 1.0 + 1e-15;
/// Below this, a product may be subnormal and the relative-error argument
/// breaks down; such freak costs take the exact path too.
constexpr double kRatioTiny = 1e-290;

/// Heap "less" for std::push_heap/pop_heap: a sorts below b iff b is the
/// strictly better pick, so the heap top is the best entry. The double
/// cross products decide almost every comparison outright (the margin above
/// makes the verdict provably equal to the exact one); near-tied ratios
/// fall back to better_pick's exact integer arithmetic over the engine's
/// cached cost decomposition, so the order is bit-identical to better_pick.
struct HeapLess {
  const CoverageEngine& eng;

  /// True iff x is the strictly better pick than y.
  bool better(const HeapEntry& x, const HeapEntry& y) const {
    if (x.gain > 0 || y.gain > 0) {
      if (x.gain <= 0) return false;
      if (y.gain <= 0) return true;
      const double lhs = static_cast<double>(x.gain) * y.cost;
      const double rhs = static_cast<double>(y.gain) * x.cost;
      if (lhs > kRatioTiny && rhs > kRatioTiny) {
        if (lhs > rhs * kRatioMargin) return true;
        if (rhs > lhs * kRatioMargin) return false;
      }
      // Equal costs (ubiquitous: sets sharing a rate level share a cost, and
      // ratio ties land here) reduce g_x/c vs g_y/c to an integer gain
      // compare — exact, and no engine lookups.
      if (x.cost == y.cost) {
        if (x.gain != y.gain) return x.gain > y.gain;
        return x.set < y.set;
      }
      return better_pick_decomposed(
          x.gain, eng.cost_mant(x.set), eng.cost_exp(x.set), x.set, y.gain,
          eng.cost_mant(y.set), eng.cost_exp(y.set), y.set);
    }
    return x.set < y.set;
  }

  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return better(b, a);
  }
};

/// Heap entry for set j with gain g.
inline HeapEntry entry_for(const CoverageEngine& eng, int32_t g, int32_t j) {
  return {g, j, eng.cost(j)};
}

/// ws.remaining = coverable ∩ restrict_to (or just coverable). Every solver
/// starts here, so this is where an engine missing its finish() is caught.
void init_remaining(const CoverageEngine& eng, SolveWorkspace& ws,
                    const util::DynBitset* restrict_to) {
  util::require(eng.indexed(), "solver: engine not indexed (call finish())");
  ws.remaining = eng.coverable();
  if (restrict_to != nullptr) ws.remaining.and_assign(*restrict_to);
}

/// ws.gain[j] = |members(j) ∩ ws.remaining| for every set. When the target
/// is the full coverable universe every member of every set counts,
/// so the gain is just the degree — O(slots). Otherwise scatter through the
/// inverted index — O(Σ_{e ∈ remaining} freq(e)).
void init_gains(const CoverageEngine& eng, SolveWorkspace& ws, bool full_target) {
  const auto slots = static_cast<size_t>(eng.n_set_slots());
  if (full_target) {
    ws.gain.resize(slots);
    for (int j = 0; j < eng.n_set_slots(); ++j) {
      ws.gain[static_cast<size_t>(j)] = eng.degree(j);
    }
    return;
  }
  ws.gain.assign(slots, 0);
  ws.remaining.for_each([&](int e) {
    eng.for_each_set_of(e, [&](int32_t k) { ++ws.gain[static_cast<size_t>(k)]; });
  });
}

void heap_make(std::vector<HeapEntry>& heap, const HeapLess& less) {
  std::make_heap(heap.begin(), heap.end(), less);
}

/// Seat `e` starting from the root of a binary max-heap whose slot 0 is a
/// hole (same layout std::make_heap/push_heap maintain). Early-exits as
/// soon as `e` dominates both children, so re-seating a slightly-demoted
/// front entry touches only the cache-hot top levels — the key cost
/// difference vs a full pop (which sifts a random *leaf* through every
/// level) followed by a push.
void heap_replace_front(std::vector<HeapEntry>& heap, const HeapLess& less,
                        HeapEntry e) {
  const size_t n = heap.size();
  size_t i = 0;
  for (;;) {
    size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && less(heap[c], heap[c + 1])) ++c;
    if (!less(e, heap[c])) break;
    heap[i] = heap[c];
    i = c;
  }
  heap[i] = e;
}

/// Removes the front (max) entry.
void heap_drop_front(std::vector<HeapEntry>& heap, const HeapLess& less) {
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (!heap.empty()) heap_replace_front(heap, less, last);
}

/// Wholesale refresh: drop every entry whose set's maintained gain hit zero,
/// overwrite each survivor's stored gain with the exact value, re-heapify.
/// O(n) total — the escape hatch the solver loops take when front-of-heap
/// churn (stale refreshes + dead drops since the last rebuild) says most of
/// the heap is stale, instead of funneling ~n dead entries one by one
/// through full-depth sifts. Selection is unchanged: afterwards the heap
/// holds exactly the entries a freshly seeded heap would, with exact gains,
/// and the comparator's strict total order picks the same unique argmax.
void heap_compact_rebuild(const std::vector<int32_t>& gain,
                          std::vector<HeapEntry>& heap, const HeapLess& less) {
  size_t w = 0;
  for (const HeapEntry& e : heap) {
    const int32_t g = gain[static_cast<size_t>(e.set)];
    if (g > 0) heap[w++] = HeapEntry{g, e.set, e.cost};
  }
  heap.resize(w);
  heap_make(heap, less);
}

/// Commits set j: marks its full member list in `covered_full` (when given),
/// clears its still-remaining members and decrements the maintained gain of
/// every set containing each newly covered element. Returns how many target
/// elements the set newly covered.
///
/// Two batched phases instead of one interleaved loop: first the member walk
/// (bitset reads/writes) gathers the newly covered elements into ws.newly,
/// then the gain maintenance streams their inverted-index rows back to back.
/// Members are ascending within a set, so the rows land in ascending CSR
/// order — sequential slices of inv_sets_ — and the decrement loop runs
/// without the member bitsets competing for cache. Decrements are
/// commutative, so the split changes nothing observable.
int commit_set(const CoverageEngine& eng, SolveWorkspace& ws, int j,
               util::DynBitset* covered_full) {
  ws.newly.clear();
  for (const int32_t e : eng.members(j)) {
    if (covered_full != nullptr) covered_full->set(e);
    if (ws.remaining.test_and_reset(e)) ws.newly.push_back(e);
  }
  for (const int32_t e : ws.newly) {
    eng.for_each_set_of(e, [&](int32_t k) { --ws.gain[static_cast<size_t>(k)]; });
  }
  return static_cast<int>(ws.newly.size());
}

/// The lazy-greedy heap protocol behind CostSC, the MCG greedy and the
/// augmentation, which differ only in their budget tests and commit steps.
/// Seeds the heap with every positive-gain set that `seed_ok(j)` admits, then
/// settles the front until the target is covered or the heap drains:
///  * churn rebuild: once the stale-front events since the last rebuild pass
///    1/32 of the heap's size, refresh it wholesale (heap_compact_rebuild);
///  * drop the front if its set is no longer `live(j)` (a budget test);
///  * refresh the front if its stored gain is stale: re-seat it in place with
///    the exact maintained gain (gains fall by small steps, so it usually
///    stops within the cache-hot top levels, far cheaper than a pop + push,
///    and the pick order is the same), or drop it once the gain hits zero;
///  * otherwise the front is the eager argmax: pop it and `take(j)` it.
/// `take` commits the set and returns how many target elements it newly
/// covered. Returns the number of target elements left uncovered.
template <typename SeedOk, typename Live, typename Take>
int lazy_greedy(const CoverageEngine& eng, SolveWorkspace& ws, SeedOk&& seed_ok,
                Live&& live, Take&& take) {
  const HeapLess less{eng};
  auto& heap = ws.heap;
  heap.clear();
  for (int j = 0; j < eng.n_set_slots(); ++j) {
    const int32_t g = ws.gain[static_cast<size_t>(j)];
    if (g > 0 && seed_ok(j)) heap.push_back(entry_for(eng, g, j));
  }
  heap_make(heap, less);

  int left = ws.remaining.count();
  size_t churn = 0;  // stale-front events since the last wholesale rebuild
  while (left > 0 && !heap.empty()) {
    if (churn * 32 > heap.size() + 64) {
      heap_compact_rebuild(ws.gain, heap, less);
      churn = 0;
      continue;
    }
    HeapEntry top = heap.front();  // peek: don't pay for a pop yet
    if (!live(top.set)) {
      heap_drop_front(heap, less);
      continue;
    }
    const int32_t g = ws.gain[static_cast<size_t>(top.set)];
    if (top.gain != g) {
      ++churn;
      if (g <= 0) {
        heap_drop_front(heap, less);
      } else {
        top.gain = g;
        heap_replace_front(heap, less, top);
      }
      continue;
    }
    heap_drop_front(heap, less);
    left -= take(top.set);
  }
  return left;
}

}  // namespace

CoverResult greedy_cover(const CoverageEngine& eng, SolveWorkspace& ws,
                         const util::DynBitset* restrict_to) {
  init_remaining(eng, ws, restrict_to);
  init_gains(eng, ws, restrict_to == nullptr);

  CoverResult res;
  res.covered = util::DynBitset(eng.n_elements());
  const auto any = [](int) { return true; };
  const int left = lazy_greedy(eng, ws, any, any, [&](int j) {
    res.chosen.push_back(j);
    res.total_cost += eng.cost(j);
    return commit_set(eng, ws, j, &res.covered);
  });
  res.complete = left == 0;
  return res;
}

void mcg_cover_into(const CoverageEngine& eng, SolveWorkspace& ws,
                    std::span<const double> group_budgets,
                    const util::DynBitset* restrict_to, McgResult& res) {
  util::require(static_cast<int>(group_budgets.size()) == eng.n_groups(),
                "mcg_cover: one budget per group required");

  init_remaining(eng, ws, restrict_to);
  ws.target = ws.remaining;
  init_gains(eng, ws, restrict_to == nullptr);
  ws.group_cost.assign(static_cast<size_t>(eng.n_groups()), 0.0);

  res.h.clear();
  res.violator.clear();
  res.h1.clear();
  res.h2.clear();
  res.chosen.clear();

  // Admitted while a set fits its group's budget on its own; live until the
  // group's budget is exhausted, so the pick that crosses it is a violator.
  const auto budget = [&](int j) {
    return group_budgets[static_cast<size_t>(eng.group(j))];
  };
  const auto spent = [&](int j) -> double& {
    return ws.group_cost[static_cast<size_t>(eng.group(j))];
  };
  lazy_greedy(
      eng, ws, [&](int j) { return util::fits_budget(eng.cost(j), budget(j)); },
      [&](int j) { return !util::budget_exhausted(spent(j), budget(j)); },
      [&](int j) {
        spent(j) += eng.cost(j);
        res.h.push_back(j);
        res.violator.push_back(util::exceeds_budget(spent(j), budget(j)));
        return commit_set(eng, ws, j, nullptr);
      });

  // H1/H2 split; output whichever covers more of the target.
  ws.cov_a.resize(eng.n_elements());
  ws.cov_b.resize(eng.n_elements());
  ws.cov_a.reset_all();
  ws.cov_b.reset_all();
  for (size_t k = 0; k < res.h.size(); ++k) {
    auto& cov = res.violator[k] ? ws.cov_b : ws.cov_a;
    (res.violator[k] ? res.h2 : res.h1).push_back(res.h[k]);
    for (const int32_t e : eng.members(res.h[k])) cov.set(e);
  }
  ws.cov_a.and_assign(ws.target);
  ws.cov_b.and_assign(ws.target);
  if (ws.cov_b.count() > ws.cov_a.count()) {
    res.chosen = res.h2;
    res.covered = ws.cov_b;
  } else {
    res.chosen = res.h1;
    res.covered = ws.cov_a;
  }
}

McgResult mcg_cover(const CoverageEngine& eng, SolveWorkspace& ws,
                    std::span<const double> group_budgets,
                    const util::DynBitset* restrict_to) {
  McgResult res;
  mcg_cover_into(eng, ws, group_budgets, restrict_to, res);
  return res;
}

std::vector<int> mcg_augment(const CoverageEngine& eng, SolveWorkspace& ws,
                             std::span<const double> group_budgets,
                             std::span<double> group_cost, util::DynBitset& covered) {
  util::require(static_cast<int>(group_budgets.size()) == eng.n_groups(),
                "mcg_augment: one budget per group required");
  util::require(static_cast<int>(group_cost.size()) == eng.n_groups(),
                "mcg_augment: one cost entry per group required");

  init_remaining(eng, ws, nullptr);
  ws.remaining.andnot_assign(covered);
  init_gains(eng, ws, /*full_target=*/false);

  // A set is admitted, and stays live, while it fits its group's budget.
  const auto fits = [&](int j) {
    const auto grp = static_cast<size_t>(eng.group(j));
    return util::fits_budget(group_cost[grp] + eng.cost(j), group_budgets[grp]);
  };
  std::vector<int> added;
  lazy_greedy(eng, ws, fits, fits, [&](int j) {
    group_cost[static_cast<size_t>(eng.group(j))] += eng.cost(j);
    added.push_back(j);
    return commit_set(eng, ws, j, &covered);
  });
  return added;
}

void mcg_top_up(const CoverageEngine& eng, SolveWorkspace& ws,
                std::span<const double> group_budgets, McgResult& res) {
  // mcg_augment never touches ws.group_cost itself, so the spend it extends
  // can live there.
  ws.group_cost.assign(static_cast<size_t>(eng.n_groups()), 0.0);
  for (const int j : res.chosen) {
    ws.group_cost[static_cast<size_t>(eng.group(j))] += eng.cost(j);
  }
  const auto added =
      mcg_augment(eng, ws, group_budgets, ws.group_cost, res.covered);
  res.chosen.insert(res.chosen.end(), added.begin(), added.end());
}

namespace {

/// One full SCG attempt at a fixed B*: iterate the MCG greedy on the
/// shrinking remainder until coverage stalls or completes. `mcg_scratch` is
/// the one McgResult reused across every pass of every attempt, so the
/// budget search allocates nothing per pass once warm.
ScgResult run_at_budget(const CoverageEngine& eng, SolveWorkspace& ws, double bstar,
                        int max_passes, bool carry_budgets, McgResult& mcg_scratch) {
  ScgResult res;
  res.bstar = bstar;
  res.covered = util::DynBitset(eng.n_elements());
  res.group_cost.assign(static_cast<size_t>(eng.n_groups()), 0.0);

  ws.pass_budget.assign(static_cast<size_t>(eng.n_groups()), bstar);
  ws.scg_remaining = eng.coverable();
  for (int pass = 0; pass < max_passes && ws.scg_remaining.any(); ++pass) {
    if (carry_budgets) {
      for (int g = 0; g < eng.n_groups(); ++g) {
        ws.pass_budget[static_cast<size_t>(g)] =
            std::max(0.0, bstar - res.group_cost[static_cast<size_t>(g)]);
      }
    }
    mcg_cover_into(eng, ws, ws.pass_budget, &ws.scg_remaining, mcg_scratch);
    const McgResult& mcg = mcg_scratch;
    if (mcg.covered.none()) break;  // no progress possible at this B*
    ++res.passes;
    for (const int j : mcg.chosen) {
      res.chosen.push_back(j);
      res.group_cost[static_cast<size_t>(eng.group(j))] += eng.cost(j);
    }
    res.covered.or_assign(mcg.covered);
    ws.scg_remaining.andnot_assign(mcg.covered);
  }
  res.feasible = ws.scg_remaining.none();
  res.max_group_cost =
      res.group_cost.empty()
          ? 0.0
          : *std::max_element(res.group_cost.begin(), res.group_cost.end());
  return res;
}

bool scg_better(const ScgResult& a, const ScgResult& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (!a.feasible) return a.covered.count() > b.covered.count();
  return a.max_group_cost < b.max_group_cost;
}

}  // namespace

ScgResult scg_cover(const CoverageEngine& eng, SolveWorkspace& ws,
                    const ScgParams& params) {
  util::require(params.budget_cap > 0.0, "scg_cover: budget cap must be positive");
  util::require(params.grid_points >= 2, "scg_cover: need at least two grid points");

  const int n = std::max(1, eng.coverable().count());
  // Theorem 4's pass bound plus a slack of 8, as in setcover/reference.cpp.
  const int max_passes =
      static_cast<int>(std::ceil(std::log(n) / std::log(8.0 / 7.0))) + 8;

  const double lo = std::max(eng.min_feasible_budget(), 1e-9);
  const double hi = std::max(params.budget_cap, lo);

  McgResult mcg_scratch;  // reused across every pass of every budget attempt
  ScgResult best =
      run_at_budget(eng, ws, lo, max_passes, params.carry_budgets, mcg_scratch);
  double largest_infeasible = best.feasible ? 0.0 : lo;

  const double ratio = hi / lo;
  for (int k = 1; k < params.grid_points; ++k) {
    const double b =
        lo * std::pow(ratio, static_cast<double>(k) / (params.grid_points - 1));
    ScgResult r =
        run_at_budget(eng, ws, b, max_passes, params.carry_budgets, mcg_scratch);
    if (!r.feasible) largest_infeasible = std::max(largest_infeasible, b);
    if (scg_better(r, best)) best = std::move(r);
  }

  if (best.feasible) {
    double infeasible_lo = largest_infeasible;
    double feasible_hi = best.bstar;
    for (int step = 0; step < params.refine_steps; ++step) {
      if (feasible_hi - infeasible_lo < 1e-6) break;
      const double mid = infeasible_lo <= 0.0 ? feasible_hi / 2
                                              : 0.5 * (infeasible_lo + feasible_hi);
      ScgResult r =
          run_at_budget(eng, ws, mid, max_passes, params.carry_budgets, mcg_scratch);
      if (r.feasible) {
        feasible_hi = mid;
        if (scg_better(r, best)) best = std::move(r);
      } else {
        infeasible_lo = mid;
      }
    }
  }
  return best;
}

LayeringResult layered_cover(const CoverageEngine& eng, SolveWorkspace& ws) {
  LayeringResult res;
  res.covered = util::DynBitset(eng.n_elements());

  init_remaining(eng, ws, nullptr);
  init_gains(eng, ws, /*full_target=*/true);
  const auto slots = static_cast<size_t>(eng.n_set_slots());
  ws.residual.assign(slots, 0.0);
  ws.taken.assign(slots, 0);
  for (int j = 0; j < eng.n_set_slots(); ++j) {
    ws.residual[static_cast<size_t>(j)] = eng.cost(j);
  }

  int left = ws.remaining.count();
  while (left > 0) {
    // epsilon = min over live sets of residual cost per uncovered element.
    // The maintained gains ARE the uncovered degrees: they only change
    // between layers (commit_set below), so both sweeps of one layer see a
    // consistent snapshot, exactly like the SetSystem implementation.
    double eps = std::numeric_limits<double>::infinity();
    bool any_live = false;
    for (int j = 0; j < eng.n_set_slots(); ++j) {
      if (ws.taken[static_cast<size_t>(j)]) continue;
      const int32_t deg = ws.gain[static_cast<size_t>(j)];
      if (deg <= 0) continue;
      any_live = true;
      eps = std::min(eps, ws.residual[static_cast<size_t>(j)] / deg);
    }
    if (!any_live) break;
    ++res.layers;

    bool picked_any = false;
    const size_t layer_start = res.chosen.size();
    for (int j = 0; j < eng.n_set_slots(); ++j) {
      if (ws.taken[static_cast<size_t>(j)]) continue;
      const int32_t deg = ws.gain[static_cast<size_t>(j)];
      if (deg <= 0) continue;
      ws.residual[static_cast<size_t>(j)] -= eps * deg;
      if (ws.residual[static_cast<size_t>(j)] <= kTol) {
        ws.taken[static_cast<size_t>(j)] = 1;
        picked_any = true;
        res.chosen.push_back(j);
        res.total_cost += eng.cost(j);
      }
    }
    WMCAST_ASSERT(picked_any, "layering: a layer must exhaust at least one set");
    for (size_t k = layer_start; k < res.chosen.size(); ++k) {
      left -= commit_set(eng, ws, res.chosen[k], &res.covered);
    }
  }

  res.covered.and_assign(eng.coverable());
  res.complete = left == 0;
  return res;
}

int max_element_frequency(const CoverageEngine& eng) {
  std::vector<int> freq(static_cast<size_t>(eng.n_elements()), 0);
  for (int j = 0; j < eng.n_set_slots(); ++j) {
    for (const int32_t e : eng.members(j)) ++freq[static_cast<size_t>(e)];
  }
  int f = 0;
  eng.coverable().for_each(
      [&](int e) { f = std::max(f, freq[static_cast<size_t>(e)]); });
  return f;
}

}  // namespace wmcast::core
