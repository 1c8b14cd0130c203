// The shared incremental coverage/load engine every solver layer runs on.
//
// A CoverageEngine holds the same combinatorial object as setcover::SetSystem
// — a weighted, grouped set system over a dense element universe — but in a
// form built for repeated and incremental solving:
//
//  * flat CSR storage — every candidate set's member list lives in one
//    contiguous int32 arena (`mem_`), addressed by per-set offset/length;
//  * an element -> containing-sets inverted index, also CSR (`inv_`), plus an
//    O(1)-append overflow chain for sets created after the last compaction;
//  * tombstones — retiring a group's sets marks them dead in place; iteration
//    helpers skip dead sets, and a compaction pass reclaims the arenas when
//    the dead fraction passes 50%;
//  * a dirty-group protocol — `update_groups(source, groups)` rebuilds only
//    the candidate sets of the named groups (APs) from the backing network
//    source, leaving everything else untouched.
//
// Solvers never scan the engine from scratch per pick: core/solve.hpp
// maintains exact marginal gains per set, decremented through the inverted
// index as elements get covered.
//
// A `Source` is any type modelling the network behind the system (see
// ScenarioSource in setcover/reduction.hpp):
//
//   int    n_elements() const;
//   int    n_groups() const;              // == number of APs
//   int    n_sessions() const;
//   double session_rate(int s) const;
//   int    element_session(int e) const;
//   bool   element_active(int e) const;   // participates in candidate sets
//   double link_rate(int g, int e) const; // 0 = out of range
//   double basic_rate() const;            // single-rate (multi_rate=false) tx
//   template <class Fn> void for_each_element_of_group(int g, Fn) const;
//     // superset of the group's in-range elements; the engine filters
//
// A Source may additionally provide
//   template <class Fn> void for_each_link_of_group(int g, Fn) const;
//     // calls Fn(e, rate) with the positive link rate paired in — sources
//     // with sparse per-group (element, rate) rows (CSR scenarios) skip the
//     // per-element link_rate lookup; element order must match
//     // for_each_element_of_group
// and the engine uses it when present (detected via `requires`).
//
// Set ids are stable between updates but NOT across compaction; hold ids only
// while the engine is quiescent (one epoch / one solve).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "wmcast/util/assert.hpp"
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

/// Lifetime counters for the rebuild-vs-repair story: how much of the system
/// incremental updates actually touched. The controller mirrors them into
/// telemetry (counters.engine.*).
struct EngineStats {
  uint64_t full_builds = 0;          // build_full calls
  uint64_t incremental_updates = 0;  // update_groups calls
  uint64_t groups_rebuilt = 0;       // groups re-projected by update_groups
  uint64_t sets_rebuilt = 0;         // sets appended by update_groups
  uint64_t sets_retired = 0;         // sets tombstoned by update_groups
  uint64_t compactions = 0;          // arena reclamation passes
};

class CoverageEngine {
 public:
  CoverageEngine() = default;

  int n_elements() const { return n_elements_; }
  int n_groups() const { return n_groups_; }
  /// Total set slots, live and dead; gain/seen arrays size to this.
  int n_set_slots() const { return static_cast<int>(cost_.size()); }
  int n_live_sets() const { return live_sets_; }

  bool alive(int j) const { return alive_[static_cast<size_t>(j)] != 0; }
  double cost(int j) const { return cost_[static_cast<size_t>(j)]; }
  /// Cached decompose_cost of cost(j): cost == cost_mant * 2^(cost_exp - 53).
  int64_t cost_mant(int j) const { return cost_mant_[static_cast<size_t>(j)]; }
  int32_t cost_exp(int j) const { return cost_exp_[static_cast<size_t>(j)]; }
  int group(int j) const { return group_[static_cast<size_t>(j)]; }
  int ap(int j) const { return group(j); }  // group == AP for WLAN systems
  int session(int j) const { return session_[static_cast<size_t>(j)]; }
  double tx_rate(int j) const { return tx_rate_[static_cast<size_t>(j)]; }
  int degree(int j) const { return mem_len_[static_cast<size_t>(j)]; }

  /// Member elements of set j (ascending within one (group, session) build).
  std::span<const int32_t> members(int j) const {
    return {mem_.data() + mem_off_[static_cast<size_t>(j)],
            static_cast<size_t>(mem_len_[static_cast<size_t>(j)])};
  }

  /// Live set ids of group g (unspecified order after updates).
  const std::vector<int32_t>& group_sets(int g) const {
    return group_sets_[static_cast<size_t>(g)];
  }

  /// Calls fn(j) for every *live* set containing element e: the CSR slice of
  /// the last compaction (dead ids skipped) plus the overflow chain.
  template <typename Fn>
  void for_each_set_of(int e, Fn&& fn) const {
    const auto eu = static_cast<size_t>(e);
    if (eu + 1 < inv_off_.size()) {
      for (int32_t k = inv_off_[eu]; k < inv_off_[eu + 1]; ++k) {
        const int32_t j = inv_sets_[static_cast<size_t>(k)];
        if (alive_[static_cast<size_t>(j)]) fn(j);
      }
    }
    if (eu < inv_head_.size()) {
      for (int32_t node = inv_head_[eu]; node != -1;
           node = inv_next_[static_cast<size_t>(node)]) {
        const int32_t j = inv_node_set_[static_cast<size_t>(node)];
        if (alive_[static_cast<size_t>(j)]) fn(j);
      }
    }
  }

  /// Elements covered by at least one live set (maintained incrementally).
  const util::DynBitset& coverable() const { return coverable_; }

  /// Largest live-set cost (SCG's c_max); recomputed lazily after updates.
  double max_set_cost() const;
  /// max over coverable e of min cost of a live set containing e; lazy.
  double min_feasible_budget() const;

  const EngineStats& stats() const { return stats_; }

  // --- construction -------------------------------------------------------

  /// Resets to an empty system over the given universe.
  void reset(int n_elements, int n_groups);

  /// Appends one set to `group` and returns its id. Members must be in
  /// [0, n_elements) and duplicates-free; cost must be positive. Used both by
  /// the Source build path and by adapters translating a SetSystem.
  int add_set(int group, int ap_session, double tx_rate, double cost,
              std::span<const int32_t> members);

  /// Grows the element universe (new elements start uncoverable). Used by
  /// update_groups when the source's universe grew.
  void grow_universe(int n_elements);

  /// Full projection of a Source (same construction as the paper's reduction,
  /// see setcover/reduction.hpp): per (group, session), one candidate set per
  /// distinct occurring link rate, members accumulating as the rate drops.
  ///
  /// Bulk path: while building, add_set skips the per-member overflow-chain
  /// insertion and the whole inverted index is counting-sorted into its CSR
  /// form once at the end — the solver's for_each_set_of then walks
  /// contiguous slices instead of 20M-node linked chains at the million-user
  /// scale. Visit order through the index differs from the chain order, but
  /// every consumer folds commutatively (gain scatter/decrement, coverability
  /// flags), so results are bit-identical.
  template <typename Source>
  void build_full(const Source& src, bool multi_rate = true) {
    reset(src.n_elements(), src.n_groups());
    bulk_building_ = true;
    for (int g = 0; g < n_groups_; ++g) build_group(src, g, multi_rate);
    bulk_building_ = false;
    rebuild_inverted_csr();
    ++stats_.full_builds;
  }

  /// Rebuilds only the candidate sets of `groups` from `src` (which reflects
  /// the *new* network state). Everything else — arenas, inverted index,
  /// other groups' sets — is untouched; dead space is reclaimed by compaction
  /// once it crosses the threshold. Group ids listed twice are rebuilt once.
  template <typename Source>
  void update_groups(const Source& src, std::span<const int> groups,
                     bool multi_rate = true) {
    if (src.n_elements() > n_elements_) grow_universe(src.n_elements());
    util::require(src.n_groups() == n_groups_,
                  "CoverageEngine::update_groups: group universe changed");
    ++stats_.incremental_updates;
    ++stamp_;
    touched_scratch_.clear();
    for (const int g : groups) {
      util::require(g >= 0 && g < n_groups_,
                    "CoverageEngine::update_groups: group out of range");
      auto& sets = group_sets_[static_cast<size_t>(g)];
      for (const int32_t j : sets) retire_set(j);
      sets.clear();
      const int before = n_set_slots();
      build_group(src, g, multi_rate);
      stats_.sets_rebuilt += static_cast<uint64_t>(n_set_slots() - before);
      ++stats_.groups_rebuilt;
    }
    // Elements that lost a set may have lost coverability (add_set already
    // restored bits for re-added members); settle them against the index.
    refresh_coverable(touched_scratch_);
    maybe_compact();
  }

  /// Reclaims dead arena space and renumbers live sets densely. Invalidate
  /// any held set ids. Called automatically by update_groups past the dead
  /// threshold; public for tests.
  void compact();

 private:
  /// One pass over the group's link row buckets requesters by session (the
  /// old shape re-walked the whole row once per session — an O(degree ×
  /// n_sessions) tax that dominated full builds at scale); sessions are then
  /// emitted in ascending order. Within a session, entries arrive in row
  /// order exactly as the per-session scan produced them, so set ids, member
  /// layout, and tie-breaks are unchanged.
  template <typename Source>
  void build_group(const Source& src, int g, bool multi_rate) {
    const int n_sessions = src.n_sessions();
    auto& buckets = session_req_scratch_;
    if (buckets.size() < static_cast<size_t>(n_sessions)) {
      buckets.resize(static_cast<size_t>(n_sessions));
    }
    for (int s = 0; s < n_sessions; ++s) buckets[static_cast<size_t>(s)].clear();

    if constexpr (requires { src.for_each_link_of_group(g, [](int, double) {}); }) {
      src.for_each_link_of_group(g, [&](int e, double r) {
        if (r <= 0.0 || !src.element_active(e)) return;
        const int s = src.element_session(e);
        if (s >= 0 && s < n_sessions) buckets[static_cast<size_t>(s)].emplace_back(r, e);
      });
    } else {
      src.for_each_element_of_group(g, [&](int e) {
        if (!src.element_active(e)) return;
        const int s = src.element_session(e);
        if (s < 0 || s >= n_sessions) return;
        const double r = src.link_rate(g, e);
        if (r > 0.0) buckets[static_cast<size_t>(s)].emplace_back(r, e);
      });
    }

    for (int s = 0; s < n_sessions; ++s) {
      auto& req = buckets[static_cast<size_t>(s)];
      if (req.empty()) continue;
      const double stream = src.session_rate(s);
      if (!multi_rate) {
        members_scratch_.clear();
        for (const auto& [r, e] : req) members_scratch_.push_back(e);
        std::sort(members_scratch_.begin(), members_scratch_.end());
        const double basic = src.basic_rate();
        add_set(g, s, basic, stream / basic, members_scratch_);
        continue;
      }
      // Bucket by distinct rate level instead of sorting the whole row:
      // rates come from a small discrete PHY table, so one linear pass with
      // a short linear-probe over the levels seen so far replaces the
      // O(d log d) pair sort that dominated million-user builds. Levels are
      // then emitted in descending rate order with ascending element ids
      // inside each level — exactly the (rate desc, id asc) sorted order —
      // so set ids, member layout, and costs are unchanged. Rows with more
      // distinct rates than the cap fall back to the sort.
      constexpr size_t kMaxRateLevels = 64;
      auto& rates = level_rate_scratch_;
      auto& lv_members = level_members_scratch_;
      rates.clear();
      bool bucketed = true;
      for (const auto& [r, e] : req) {
        size_t li = 0;
        const size_t n = rates.size();
        while (li < n && rates[li] != r) ++li;
        if (li == n) {
          if (n == kMaxRateLevels) {
            bucketed = false;
            break;
          }
          rates.push_back(r);
          if (lv_members.size() <= li) lv_members.emplace_back();
          lv_members[li].clear();
        }
        lv_members[li].push_back(e);
      }
      if (bucketed) {
        auto& order = level_order_scratch_;
        order.resize(rates.size());
        for (size_t k = 0; k < order.size(); ++k) order[k] = static_cast<int>(k);
        // Rates within one row are distinct by construction, so descending
        // `>` is a total order — the emission order is deterministic.
        std::sort(order.begin(), order.end(), [&](int x, int y) {
          return rates[static_cast<size_t>(x)] > rates[static_cast<size_t>(y)];
        });
        members_scratch_.clear();
        for (const int li : order) {
          auto& m = lv_members[static_cast<size_t>(li)];
          // Row order is already ascending for CSR sources (the users_of_ap
          // contract); generic sources pay the per-level sort.
          if (!std::is_sorted(m.begin(), m.end())) std::sort(m.begin(), m.end());
          members_scratch_.insert(members_scratch_.end(), m.begin(), m.end());
          const double rate = rates[static_cast<size_t>(li)];
          add_set(g, s, rate, stream / rate, members_scratch_);
        }
        continue;
      }
      // Descending rate; ties on rate keep ascending element order so set
      // ids and member layout are deterministic.
      std::sort(req.begin(), req.end(), [](const auto& x, const auto& y) {
        return x.first != y.first ? x.first > y.first : x.second < y.second;
      });
      members_scratch_.clear();
      size_t i = 0;
      while (i < req.size()) {
        const double rate = req[i].first;
        while (i < req.size() && req[i].first == rate) {
          members_scratch_.push_back(req[i].second);
          ++i;
        }
        add_set(g, s, rate, stream / rate, members_scratch_);
      }
    }
  }

  void retire_set(int32_t j);
  void refresh_coverable(std::span<const int32_t> elements);
  void maybe_compact();
  /// Counting-sorts mem_ into the inverted CSR (inv_off_/inv_sets_) and
  /// drains the overflow chains. Requires every slot alive (fresh full build
  /// or post-compaction state).
  void rebuild_inverted_csr();

  int n_elements_ = 0;
  int n_groups_ = 0;
  int live_sets_ = 0;

  // Per-set SoA (indexed by set id, including dead slots).
  std::vector<int32_t> mem_off_;
  std::vector<int32_t> mem_len_;
  std::vector<double> cost_;
  std::vector<int64_t> cost_mant_;  // cached decompose_cost(cost_[j])
  std::vector<int32_t> cost_exp_;
  std::vector<double> tx_rate_;
  std::vector<int32_t> group_;
  std::vector<int32_t> session_;
  std::vector<char> alive_;

  std::vector<int32_t> mem_;  // the member arena
  int64_t dead_members_ = 0;  // arena entries owned by dead sets

  // Inverted index: CSR snapshot (of the last compaction / full build) plus
  // overflow chains for post-snapshot sets.
  std::vector<int32_t> inv_off_;
  std::vector<int32_t> inv_sets_;
  std::vector<int32_t> inv_head_;      // per element, -1 = empty chain
  std::vector<int32_t> inv_node_set_;  // overflow nodes
  std::vector<int32_t> inv_next_;

  std::vector<std::vector<int32_t>> group_sets_;

  util::DynBitset coverable_;
  mutable double max_cost_ = 0.0;
  mutable double min_feasible_budget_ = 0.0;
  mutable bool cost_caches_dirty_ = true;

  // Reusable build scratch (no steady-state allocations).
  std::vector<std::vector<std::pair<double, int>>> session_req_scratch_;
  std::vector<int32_t> members_scratch_;
  std::vector<double> level_rate_scratch_;
  std::vector<std::vector<int32_t>> level_members_scratch_;
  std::vector<int> level_order_scratch_;
  bool bulk_building_ = false;
  std::vector<int32_t> touched_scratch_;
  std::vector<int32_t> touched_stamp_;
  std::vector<int32_t> inv_cursor_scratch_;
  int32_t stamp_ = 0;

  EngineStats stats_;
};

}  // namespace wmcast::core
