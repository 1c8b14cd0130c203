// The WLAN instance the association algorithms operate on (§3.1 of the
// paper): a set of APs, a set of multicast users, per-link maximum PHY rates,
// multicast sessions with stream data rates, and a per-AP multicast load
// budget.
//
// Two construction paths:
//  * from_geometry   — node positions + a RateTable (the paper's evaluation);
//  * from_link_rates — an explicit AP×user rate matrix (the paper's worked
//                      examples, e.g. Fig. 1, use arbitrary rates).
//
// Storage is sparse (DESIGN.md §11): only positive link rates are kept, in
// CSR form — one strongest-first row per user plus the users_of_ap
// transpose. A link costs 10 bytes: each row entry is a 4-byte AP (or user)
// id and a one-byte index into rate_levels(), the instance's few distinct
// PHY rates (Table 1 has seven). Geometric instances are built by querying
// a uniform-grid index over the AP positions once per user, so construction
// costs O(n_users · k̄) for average candidate degree k̄, not
// O(n_users · n_aps), and memory likewise. Every construction path hands its
// candidates to one row writer, which orders each row and stores it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "wmcast/wlan/geometry.hpp"
#include "wmcast/wlan/grid_index.hpp"
#include "wmcast/wlan/rate_table.hpp"

namespace wmcast::util {
class ThreadPool;
}

namespace wmcast::wlan {

/// Identifier conventions: APs, users and sessions are dense ints
/// [0, n_aps), [0, n_users), [0, n_sessions). kNoAp marks "unassociated".
inline constexpr int kNoAp = -1;

/// Non-owning view of a contiguous id list (a CSR row). Converts implicitly
/// from and to std::vector<int> so pre-sparse call sites — range-for loops,
/// `heard = sc.aps_of_user(u)` copies, EXPECT_EQ against vectors — keep
/// working unchanged. Valid as long as the owning Scenario is alive.
class IndexSpan {
 public:
  using value_type = int;
  using const_iterator = const int*;

  IndexSpan() = default;
  IndexSpan(const int* data, size_t size) : data_(data), size_(size) {}
  IndexSpan(const std::vector<int>& v) : data_(v.data()), size_(v.size()) {}

  const int* begin() const { return data_; }
  const int* end() const { return data_ + size_; }
  const int* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int operator[](size_t i) const { return data_[i]; }
  int front() const { return data_[0]; }

  operator std::vector<int>() const { return std::vector<int>(begin(), end()); }

  friend bool operator==(IndexSpan a, IndexSpan b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }

 private:
  const int* data_ = nullptr;
  size_t size_ = 0;
};

/// Non-owning view of the link rates parallel to a CSR row. Each link stores
/// a one-byte index into the scenario's rate levels; entry i reads the rate
/// of the row's i-th link through it. Valid as long as the owning Scenario
/// is alive.
class RateSpan {
 public:
  RateSpan() = default;
  RateSpan(const uint8_t* level, const double* rate_of_level)
      : level_(level), rate_of_level_(rate_of_level) {}

  double operator[](size_t i) const { return rate_of_level_[level_[i]]; }
  /// Index of entry i's rate in Scenario::rate_levels().
  int level(size_t i) const { return level_[i]; }

 private:
  const uint8_t* level_ = nullptr;
  const double* rate_of_level_ = nullptr;
};

/// A batch of user-level changes for incremental rebuilds (mobility.cpp):
/// moved users get fresh candidate rows from the grid, rezapped users keep
/// their rows but change session. Duplicate user entries apply in order
/// (last wins for positions).
struct ScenarioDelta {
  std::vector<std::pair<int, Point>> moved;   // user -> new position
  std::vector<std::pair<int, int>> rezapped;  // user -> new session
};

/// Immutable problem instance. Invariants established at construction:
/// rates non-negative (0 = out of range), each user requests a valid session,
/// session stream rates positive, budget in (0, 1].
class Scenario {
 public:
  /// Geometric construction: link rate = table.rate_for_distance(|ap-user|).
  /// Signal strength ordering is by distance (closer = stronger). Candidate
  /// APs per user come from a uniform-grid index with cell size equal to the
  /// table's coverage radius. With a pool of size > 1 the per-user rows are
  /// built in parallel over static chunks — the result is bit-identical at
  /// any thread count (each row is a pure function of the inputs).
  ///
  /// `active` (optional, one entry per user) names the users that want
  /// service; a user whose entry is 0 keeps its position and session but gets
  /// an empty candidate row without a grid query, which makes it an
  /// uncoverable user that every solver skips. This is how the controller
  /// keeps one row per slot (ctrl/state.hpp). Null = every user. A mask of
  /// the wrong size throws std::invalid_argument.
  static Scenario from_geometry(std::vector<Point> ap_pos, std::vector<Point> user_pos,
                                std::vector<int> user_session,
                                std::vector<double> session_rate_mbps,
                                const RateTable& table, double load_budget = 0.9,
                                util::ThreadPool* pool = nullptr,
                                const std::vector<char>* active = nullptr);

  /// Reference construction: materializes the dense AP×user matrix with the
  /// pre-sparse O(n_aps · n_users) pairwise scan, then projects it to CSR.
  /// Produces a Scenario identical to from_geometry — kept as the
  /// differential-test oracle and the dense arm of bench/scale_build.
  static Scenario from_geometry_dense(std::vector<Point> ap_pos,
                                      std::vector<Point> user_pos,
                                      std::vector<int> user_session,
                                      std::vector<double> session_rate_mbps,
                                      const RateTable& table, double load_budget = 0.9);

  /// Explicit construction: link_rate[a][u] in Mbps, 0 = out of range.
  /// Signal strength ordering is by link rate (higher = stronger).
  static Scenario from_link_rates(std::vector<std::vector<double>> link_rate,
                                  std::vector<int> user_session,
                                  std::vector<double> session_rate_mbps,
                                  double load_budget = 0.9);

  int n_aps() const { return n_aps_; }
  int n_users() const { return n_users_; }
  int n_sessions() const { return static_cast<int>(session_rate_.size()); }

  /// Maximum PHY rate from AP `a` to user `u`; 0 when out of range. A scan
  /// of the user's row (O(k), k = candidate APs, about 20 at the paper's
  /// densities); rows are strongest first, so the APs a user is likely to
  /// sit on come up early.
  double link_rate(int a, int u) const {
    const auto e = static_cast<size_t>(user_row_[static_cast<size_t>(u) + 1]);
    for (auto pos = static_cast<size_t>(user_row_[static_cast<size_t>(u)]); pos < e; ++pos) {
      if (nbr_ap_[pos] == a) return rate_levels_[nbr_level_[pos]];
    }
    return 0.0;
  }
  bool in_range(int a, int u) const { return link_rate(a, u) > 0.0; }

  /// Session requested by user `u`.
  int user_session(int u) const { return user_session_[static_cast<size_t>(u)]; }
  /// Stream data rate of session `s` in Mbps.
  double session_rate(int s) const { return session_rate_[static_cast<size_t>(s)]; }

  /// Fraction of airtime each AP may spend on multicast (paper: 0.9).
  double load_budget() const { return load_budget_; }

  /// APs within range of user `u`, strongest signal first.
  IndexSpan aps_of_user(int u) const {
    const int64_t b = user_row_[static_cast<size_t>(u)];
    return {nbr_ap_.data() + b,
            static_cast<size_t>(user_row_[static_cast<size_t>(u) + 1] - b)};
  }
  /// Link rates parallel to aps_of_user(u): rates_of_user(u)[i] is the rate
  /// to aps_of_user(u)[i], read through the link's rate level. All entries
  /// are positive.
  RateSpan rates_of_user(int u) const {
    return {nbr_level_.data() + user_row_[static_cast<size_t>(u)], rate_levels_.data()};
  }

  /// Users within range of AP `a`, ascending id.
  IndexSpan users_of_ap(int a) const {
    const int64_t b = ap_row_[static_cast<size_t>(a)];
    return {ap_user_.data() + b,
            static_cast<size_t>(ap_row_[static_cast<size_t>(a) + 1] - b)};
  }
  /// Link rates parallel to users_of_ap(a), read through the link's level.
  RateSpan rates_of_ap(int a) const {
    return {ap_user_level_.data() + ap_row_[static_cast<size_t>(a)], rate_levels_.data()};
  }

  /// Strongest-signal AP of user `u`: the first entry of its row (kNoAp when
  /// no AP is in range).
  int strongest_ap(int u) const {
    const int64_t b = user_row_[static_cast<size_t>(u)];
    return b < user_row_[static_cast<size_t>(u) + 1] ? nbr_ap_[static_cast<size_t>(b)]
                                                     : kNoAp;
  }

  /// Lowest positive link rate in the instance — the "basic rate" used when
  /// multi-rate multicast is disabled (802.11 standard behaviour).
  double basic_rate() const { return basic_rate_; }

  /// Distinct link-rate values that can occur in this instance, ascending;
  /// each link stores its rate as an index into this list, so there are at
  /// most 256. Geometric instances list every rate of the build table (some
  /// may have zero occurrences); explicit instances list the rates actually
  /// present.
  const std::vector<double>& rate_levels() const { return rate_levels_; }
  /// Number of (ap, user) links carrying rate_levels()[i].
  const std::vector<int64_t>& rate_level_counts() const { return rate_level_count_; }

  /// True when built by from_geometry (positions available).
  bool has_geometry() const { return !ap_pos_.empty() || n_aps_ == 0; }
  const std::vector<Point>& ap_positions() const { return ap_pos_; }
  const std::vector<Point>& user_positions() const { return user_pos_; }
  /// The rate table a geometric instance was built with; nullptr for
  /// explicit (from_link_rates) instances.
  const RateTable* rate_table() const { return table_ ? &*table_ : nullptr; }
  /// The AP grid of a geometric instance (empty for explicit instances).
  const GridIndex& ap_grid() const { return grid_; }

  /// Users that at least one AP can reach; only these can ever be satisfied.
  int n_coverable_users() const { return n_coverable_; }

  /// Total stored positive links (CSR edges).
  int64_t n_links() const { return static_cast<int64_t>(nbr_ap_.size()); }
  /// Bytes held by this instance's containers (deterministic accounting of
  /// sizes, not allocator slack) — the scale bench's memory metric.
  size_t memory_bytes() const;

  /// A copy of this scenario with a different per-AP load budget.
  Scenario with_budget(double load_budget) const;
  /// A copy with different session stream rates (size must match).
  Scenario with_session_rates(std::vector<double> session_rate_mbps) const;

  /// Incremental rebuild (geometric instances only): returns a copy with the
  /// delta applied. Moved users' candidate rows are re-queried from the grid;
  /// everyone else's rows are copied verbatim, so the result is identical to
  /// a full from_geometry at the new positions. `dirty_aps` (optional out)
  /// receives the ascending ids of every AP whose candidate set, member
  /// rates, or (ap, session) membership may have changed — exactly the
  /// groups a ctrl-style dirty-region repair must re-project.
  Scenario apply_delta(const ScenarioDelta& delta, std::vector<int>* dirty_aps) const;

 private:
  /// The row writer (scenario.cpp): the rows of one run of consecutive
  /// users, each ordered strongest first from the candidates it was handed.
  struct RowWriter;

  Scenario() = default;

  void validate_core() const;
  void build_geometric_rows(util::ThreadPool* pool, const std::vector<char>* active);
  void set_rows(std::vector<RowWriter>& runs);
  void build_transpose();
  void finalize_stats();

  int n_aps_ = 0;
  int n_users_ = 0;
  std::vector<int> user_session_;
  std::vector<double> session_rate_;
  double load_budget_ = 0.9;
  double basic_rate_ = 0.0;
  int n_coverable_ = 0;

  // Primary CSR: per-user candidate rows, strongest-first (by distance for
  // geometric instances, by rate for explicit ones; AP id breaks ties).
  std::vector<int64_t> user_row_;    // n_users + 1 offsets
  std::vector<int> nbr_ap_;          // candidate AP ids
  std::vector<uint8_t> nbr_level_;   // rate_levels_ index, parallel to nbr_ap_

  // Transpose CSR: per-AP member rows, ascending user id, levels paired.
  std::vector<int64_t> ap_row_;  // n_aps + 1 offsets
  std::vector<int> ap_user_;
  std::vector<uint8_t> ap_user_level_;

  std::vector<double> rate_levels_;        // ascending distinct rates
  std::vector<int64_t> rate_level_count_;  // links per level

  std::vector<Point> ap_pos_;    // empty for explicit instances
  std::vector<Point> user_pos_;  // empty for explicit instances
  std::optional<RateTable> table_;  // set for geometric instances
  GridIndex grid_;                  // AP grid of geometric instances
};

}  // namespace wmcast::wlan
