// The shared coverage/load engine every solver layer runs on.
//
// A CoverageEngine holds the same combinatorial object as setcover::SetSystem
// — a weighted, grouped set system over a dense element universe — in a form
// built for fast solving:
//
//  * flat CSR storage — every candidate set's member list lives in one
//    contiguous int32 arena (`mem_`), addressed by per-set offset/length;
//  * an element -> containing-sets inverted index, also CSR (`inv_`),
//    counting-sorted from the arena once all sets are in.
//
// An engine is built once: reset(), then add_set() per set, then finish(),
// which indexes it. It is read-only after that; a new network means a new
// build (reset() keeps the arenas' capacity). setcover::build_engine projects
// a wlan::Scenario this way and setcover::to_engine a SetSystem.
//
// Solvers never scan the engine from scratch per pick: core/solve.hpp
// maintains exact marginal gains per set, decremented through the inverted
// index as elements get covered.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "wmcast/util/bitset.hpp"

namespace wmcast::core {

/// Exact (mantissa, exponent) decomposition of a positive cost: cost =
/// mant * 2^(exp-53) with mant an integer in [2^52, 2^53) (smaller for
/// subnormals; still exact). The engine caches this per set so the solvers'
/// exact cross-product comparator (core/solve.hpp better_pick) never re-runs
/// frexp inside the heap hot loop.
inline void decompose_cost(double cost, int64_t& mant, int32_t& exp) {
  int e = 0;
  const double f = std::frexp(cost, &e);
  mant = static_cast<int64_t>(std::ldexp(f, 53));
  exp = e;
}

class CoverageEngine {
 public:
  CoverageEngine() = default;

  int n_elements() const { return n_elements_; }
  int n_groups() const { return n_groups_; }
  /// Number of sets; ids are 0..n_set_slots()-1 in add_set order.
  int n_set_slots() const { return static_cast<int>(cost_.size()); }
  /// Every set is live: equals n_set_slots().
  int n_live_sets() const { return n_set_slots(); }

  /// Every set is live: always true.
  bool alive(int /*j*/) const { return true; }
  double cost(int j) const { return cost_[static_cast<size_t>(j)]; }
  /// Cached decompose_cost of cost(j): cost == cost_mant * 2^(cost_exp - 53).
  int64_t cost_mant(int j) const { return cost_mant_[static_cast<size_t>(j)]; }
  int32_t cost_exp(int j) const { return cost_exp_[static_cast<size_t>(j)]; }
  int group(int j) const { return group_[static_cast<size_t>(j)]; }
  int ap(int j) const { return group(j); }  // group == AP for WLAN systems
  int session(int j) const { return session_[static_cast<size_t>(j)]; }
  double tx_rate(int j) const { return tx_rate_[static_cast<size_t>(j)]; }
  int degree(int j) const { return mem_len_[static_cast<size_t>(j)]; }

  /// Member elements of set j, in the order add_set received them.
  std::span<const int32_t> members(int j) const {
    return {mem_.data() + mem_off_[static_cast<size_t>(j)],
            static_cast<size_t>(mem_len_[static_cast<size_t>(j)])};
  }

  /// Calls fn(j) for every set containing element e, ascending id. Requires
  /// indexed().
  template <typename Fn>
  void for_each_set_of(int e, Fn&& fn) const {
    const auto eu = static_cast<size_t>(e);
    for (int32_t k = inv_off_[eu]; k < inv_off_[eu + 1]; ++k) {
      fn(inv_sets_[static_cast<size_t>(k)]);
    }
  }

  /// Elements covered by at least one set.
  const util::DynBitset& coverable() const { return coverable_; }

  /// Largest set cost (SCG's c_max); computed on first use.
  double max_set_cost() const;
  /// max over coverable e of min cost of a set containing e; computed on
  /// first use.
  double min_feasible_budget() const;

  /// True once finish() has built the inverted index.
  bool indexed() const { return indexed_; }

  /// Bytes the engine's arrays hold (sizes, not capacities, so the figure is
  /// a deterministic function of the set system).
  size_t memory_bytes() const;

  // --- construction -------------------------------------------------------

  /// Resets to an empty, unindexed system over the given universe.
  void reset(int n_elements, int n_groups);

  /// Appends one set to `group` and returns its id. Members must be in
  /// [0, n_elements) and duplicates-free; cost must be positive. Only before
  /// finish().
  int add_set(int group, int ap_session, double tx_rate, double cost,
              std::span<const int32_t> members);

  /// Counting-sorts the member arena into the inverted index. Call once,
  /// after the last add_set; the solvers reject an engine without it.
  void finish();

 private:
  int n_elements_ = 0;
  int n_groups_ = 0;
  bool indexed_ = false;

  // Per-set SoA (indexed by set id).
  std::vector<int32_t> mem_off_;
  std::vector<int32_t> mem_len_;
  std::vector<double> cost_;
  std::vector<int64_t> cost_mant_;  // cached decompose_cost(cost_[j])
  std::vector<int32_t> cost_exp_;
  std::vector<double> tx_rate_;
  std::vector<int32_t> group_;
  std::vector<int32_t> session_;

  std::vector<int32_t> mem_;  // the member arena

  // Inverted index: element e's containing sets are
  // inv_sets_[inv_off_[e] .. inv_off_[e + 1]).
  std::vector<int32_t> inv_off_;
  std::vector<int32_t> inv_sets_;

  util::DynBitset coverable_;
  mutable double max_cost_ = 0.0;
  mutable double min_feasible_budget_ = 0.0;
  mutable bool cost_caches_dirty_ = true;
};

}  // namespace wmcast::core
