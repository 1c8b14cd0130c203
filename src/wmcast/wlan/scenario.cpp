#include "wmcast/wlan/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "wmcast/util/assert.hpp"
#include "wmcast/util/thread_pool.hpp"

namespace wmcast::wlan {

namespace {

/// A link stores its rate as a one-byte index into rate_levels_.
constexpr size_t kMaxRateLevels = 256;

/// One candidate AP of one user. A row orders its candidates strongest first
/// by (key, AP id): the key is the distance for geometric instances and the
/// negated rate for explicit ones.
struct Cand {
  double key;
  int ap;
  int level;  // index into rate_levels_
};

/// The levels of a geometric instance: every rate of its table, ascending,
/// so table step i is level n_steps - 1 - i.
std::vector<double> table_levels(const RateTable& table) {
  const auto& steps = table.steps();
  util::require(steps.size() <= kMaxRateLevels,
                "Scenario: a rate table may have at most 256 rates (a link stores its "
                "rate level in one byte)");
  std::vector<double> levels(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    levels[steps.size() - 1 - i] = steps[i].rate_mbps;
  }
  return levels;
}

/// Gathers the in-range candidates of a point from the AP grid. The grid
/// over-approximates by cell, so each candidate is distance-filtered exactly;
/// rate_for_distance is inclusive at each threshold, hence `d <= range`
/// keeps an AP at exactly the maximum range.
void query_row(const GridIndex& grid, const std::vector<Point>& ap_pos,
               const RateTable& table, const Point& up, std::vector<Cand>& out) {
  const double range = table.range_m();
  const int top = static_cast<int>(table.steps().size()) - 1;
  out.clear();
  grid.for_each_candidate(up, range, [&](int a) {
    const double d = distance(ap_pos[static_cast<size_t>(a)], up);
    if (d <= range) out.push_back({d, a, top - table.step_index_for_distance(d)});
  });
}

}  // namespace

/// The one row writer. Every construction path hands it each user's
/// candidates, in any order; it orders them strongest first and appends the
/// row. A writer holds the rows of one run of consecutive users, and
/// set_rows() places the runs in user order.
struct Scenario::RowWriter {
  std::vector<int64_t> end;  // end of each row, relative to this run
  std::vector<int> ap;
  std::vector<uint8_t> level;

  void add(std::vector<Cand>& cand) {
    // AP ids are distinct within a row, so the order is total: the row does
    // not depend on the order the candidates were found in.
    std::sort(cand.begin(), cand.end(), [](const Cand& x, const Cand& y) {
      return x.key != y.key ? x.key < y.key : x.ap < y.ap;
    });
    for (const Cand& c : cand) {
      ap.push_back(c.ap);
      level.push_back(static_cast<uint8_t>(c.level));
    }
    end.push_back(static_cast<int64_t>(ap.size()));
  }

  /// Appends a row that is already in order (apply_delta's unmoved users).
  void copy(IndexSpan aps, const uint8_t* levels) {
    ap.insert(ap.end(), aps.begin(), aps.end());
    level.insert(level.end(), levels, levels + aps.size());
    end.push_back(static_cast<int64_t>(ap.size()));
  }
};

Scenario Scenario::from_geometry(std::vector<Point> ap_pos, std::vector<Point> user_pos,
                                 std::vector<int> user_session,
                                 std::vector<double> session_rate_mbps,
                                 const RateTable& table, double load_budget,
                                 util::ThreadPool* pool,
                                 const std::vector<char>* active) {
  Scenario sc;
  sc.n_aps_ = static_cast<int>(ap_pos.size());
  sc.n_users_ = static_cast<int>(user_pos.size());
  sc.ap_pos_ = std::move(ap_pos);
  sc.user_pos_ = std::move(user_pos);
  sc.user_session_ = std::move(user_session);
  sc.session_rate_ = std::move(session_rate_mbps);
  sc.load_budget_ = load_budget;
  sc.table_ = table;
  sc.validate_core();
  util::require(active == nullptr || active->size() == sc.user_pos_.size(),
                "Scenario: active mask size mismatch");
  sc.grid_ = GridIndex(sc.ap_pos_, table.range_m());
  sc.build_geometric_rows(pool, active);
  return sc;
}

Scenario Scenario::from_geometry_dense(std::vector<Point> ap_pos,
                                       std::vector<Point> user_pos,
                                       std::vector<int> user_session,
                                       std::vector<double> session_rate_mbps,
                                       const RateTable& table, double load_budget) {
  Scenario sc;
  sc.n_aps_ = static_cast<int>(ap_pos.size());
  sc.n_users_ = static_cast<int>(user_pos.size());
  sc.ap_pos_ = std::move(ap_pos);
  sc.user_pos_ = std::move(user_pos);
  sc.user_session_ = std::move(user_session);
  sc.session_rate_ = std::move(session_rate_mbps);
  sc.load_budget_ = load_budget;
  sc.table_ = table;
  sc.validate_core();
  sc.grid_ = GridIndex(sc.ap_pos_, table.range_m());
  sc.rate_levels_ = table_levels(table);

  // The pre-sparse build: materialize the full AP×user matrix with the
  // O(n_aps · n_users) pairwise scan, then project its positive entries.
  std::vector<double> dense(static_cast<size_t>(sc.n_aps_) *
                            static_cast<size_t>(sc.n_users_));
  for (int a = 0; a < sc.n_aps_; ++a) {
    for (int u = 0; u < sc.n_users_; ++u) {
      const double d = distance(sc.ap_pos_[static_cast<size_t>(a)],
                                sc.user_pos_[static_cast<size_t>(u)]);
      dense[static_cast<size_t>(a) * static_cast<size_t>(sc.n_users_) +
            static_cast<size_t>(u)] = table.rate_for_distance(d);
    }
  }

  const int top = static_cast<int>(table.steps().size()) - 1;
  std::vector<RowWriter> runs(1);
  std::vector<Cand> cand;
  for (int u = 0; u < sc.n_users_; ++u) {
    cand.clear();
    const Point up = sc.user_pos_[static_cast<size_t>(u)];
    for (int a = 0; a < sc.n_aps_; ++a) {
      if (dense[static_cast<size_t>(a) * static_cast<size_t>(sc.n_users_) +
                static_cast<size_t>(u)] <= 0.0) {
        continue;
      }
      const double d = distance(sc.ap_pos_[static_cast<size_t>(a)], up);
      cand.push_back({d, a, top - table.step_index_for_distance(d)});
    }
    runs[0].add(cand);
  }
  sc.set_rows(runs);
  return sc;
}

Scenario Scenario::from_link_rates(std::vector<std::vector<double>> link_rate,
                                   std::vector<int> user_session,
                                   std::vector<double> session_rate_mbps,
                                   double load_budget) {
  Scenario sc;
  sc.n_aps_ = static_cast<int>(link_rate.size());
  sc.n_users_ = sc.n_aps_ > 0 ? static_cast<int>(link_rate[0].size())
                              : static_cast<int>(user_session.size());
  sc.user_session_ = std::move(user_session);
  sc.session_rate_ = std::move(session_rate_mbps);
  sc.load_budget_ = load_budget;
  sc.validate_core();
  std::vector<double>& levels = sc.rate_levels_;
  for (int a = 0; a < sc.n_aps_; ++a) {
    util::require(static_cast<int>(link_rate[static_cast<size_t>(a)].size()) == sc.n_users_,
                  "Scenario: ragged link-rate matrix");
    for (const double r : link_rate[static_cast<size_t>(a)]) {
      util::require(r >= 0.0, "Scenario: link rates must be non-negative");
      if (r > 0.0) levels.push_back(r);
    }
  }

  // Explicit instances have no rate table: the levels are whatever rates
  // actually occur.
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  util::require(levels.size() <= kMaxRateLevels,
                "Scenario: more than 256 distinct link rates (a link stores its rate "
                "level in one byte)");

  // Strongest order for explicit instances is by rate (higher = stronger),
  // AP id ties: the key is the negated rate.
  std::vector<RowWriter> runs(1);
  std::vector<Cand> cand;
  for (int u = 0; u < sc.n_users_; ++u) {
    cand.clear();
    for (int a = 0; a < sc.n_aps_; ++a) {
      const double r = link_rate[static_cast<size_t>(a)][static_cast<size_t>(u)];
      if (r <= 0.0) continue;
      const auto level = std::lower_bound(levels.begin(), levels.end(), r) - levels.begin();
      cand.push_back({-r, a, static_cast<int>(level)});
    }
    runs[0].add(cand);
  }
  sc.set_rows(runs);
  return sc;
}

void Scenario::validate_core() const {
  util::require(static_cast<int>(user_session_.size()) == n_users_,
                "Scenario: user_session size mismatch");
  util::require(!session_rate_.empty() || n_users_ == 0,
                "Scenario: need at least one session");
  util::require(load_budget_ > 0.0 && load_budget_ <= 1.0,
                "Scenario: load budget must be in (0, 1]");
  for (const double r : session_rate_) {
    util::require(r > 0.0, "Scenario: session rates must be positive");
  }
  for (int u = 0; u < n_users_; ++u) {
    const int s = user_session_[static_cast<size_t>(u)];
    util::require(s >= 0 && s < n_sessions(), "Scenario: user requests invalid session");
  }
  for (const Point& p : user_pos_) {
    util::require(std::isfinite(p.x) && std::isfinite(p.y),
                  "Scenario: non-finite user position");
  }
}

void Scenario::build_geometric_rows(util::ThreadPool* pool,
                                    const std::vector<char>* active) {
  rate_levels_ = table_levels(*table_);

  // One grid query per active user (a masked-out user's row is empty); each
  // lane writes the rows of its static chunk of users into its own run.
  // Every row is a pure function of the inputs and the runs are placed in
  // user order, so the result is bit-identical at any lane count.
  const bool parallel = pool != nullptr && pool->size() > 1 && n_users_ > 1;
  std::vector<RowWriter> runs(parallel ? static_cast<size_t>(pool->size()) : 1);
  const auto fill = [&](int64_t b, int64_t e, int lane) {
    RowWriter run;  // lane-local while it grows, so lanes share no cache line
    std::vector<Cand> cand;
    for (int64_t u = b; u < e; ++u) {
      cand.clear();
      if (active == nullptr || (*active)[static_cast<size_t>(u)]) {
        query_row(grid_, ap_pos_, *table_, user_pos_[static_cast<size_t>(u)], cand);
      }
      run.add(cand);
    }
    runs[static_cast<size_t>(lane)] = std::move(run);
  };
  if (parallel) {
    pool->parallel_for(0, n_users_, fill);
  } else {
    fill(0, n_users_, 0);
  }
  set_rows(runs);
}

void Scenario::set_rows(std::vector<RowWriter>& runs) {
  user_row_.assign(static_cast<size_t>(n_users_) + 1, 0);
  size_t u = 0;
  int64_t base = 0;
  for (const RowWriter& run : runs) {
    for (const int64_t e : run.end) user_row_[++u] = base + e;
    base += static_cast<int64_t>(run.ap.size());
  }
  WMCAST_ASSERT(u == static_cast<size_t>(n_users_), "Scenario: row count mismatch");
  // A single run (every serial build) is moved in. It grew by push_back, so
  // its capacity may reach twice its size, but nothing writes past size():
  // at the sizes where that matters the tail is untouched mmap pages, which
  // hold no memory. Copying into exactly sized arrays instead left the peak
  // RSS of a 1M-user build unchanged and made the build 0.24 s slower.
  if (runs.size() == 1) {
    nbr_ap_ = std::move(runs[0].ap);
    nbr_level_ = std::move(runs[0].level);
  } else {
    nbr_ap_.reserve(static_cast<size_t>(base));
    nbr_level_.reserve(static_cast<size_t>(base));
    for (RowWriter& run : runs) {
      nbr_ap_.insert(nbr_ap_.end(), run.ap.begin(), run.ap.end());
      nbr_level_.insert(nbr_level_.end(), run.level.begin(), run.level.end());
      run = RowWriter();  // release the run once placed
    }
  }
  rate_level_count_.assign(rate_levels_.size(), 0);
  for (const uint8_t l : nbr_level_) ++rate_level_count_[l];
  build_transpose();
  finalize_stats();
}

void Scenario::build_transpose() {
  // Counting sort of the links by AP; visiting users ascending keeps each
  // AP's member list ascending by user id (the users_of_ap contract).
  ap_row_.assign(static_cast<size_t>(n_aps_) + 1, 0);
  for (const int a : nbr_ap_) ++ap_row_[static_cast<size_t>(a) + 1];
  for (int a = 0; a < n_aps_; ++a) {
    ap_row_[static_cast<size_t>(a) + 1] += ap_row_[static_cast<size_t>(a)];
  }
  ap_user_.resize(nbr_ap_.size());
  ap_user_level_.resize(nbr_ap_.size());
  std::vector<int64_t> fill(ap_row_.begin(), ap_row_.end() - 1);
  for (int u = 0; u < n_users_; ++u) {
    for (int64_t pos = user_row_[static_cast<size_t>(u)];
         pos < user_row_[static_cast<size_t>(u) + 1]; ++pos) {
      const auto a = static_cast<size_t>(nbr_ap_[static_cast<size_t>(pos)]);
      const auto at = static_cast<size_t>(fill[a]++);
      ap_user_[at] = u;
      ap_user_level_[at] = nbr_level_[static_cast<size_t>(pos)];
    }
  }
}

void Scenario::finalize_stats() {
  n_coverable_ = 0;
  for (int u = 0; u < n_users_; ++u) {
    if (user_row_[static_cast<size_t>(u) + 1] > user_row_[static_cast<size_t>(u)]) {
      ++n_coverable_;
    }
  }
  basic_rate_ = 0.0;
  for (size_t i = 0; i < rate_levels_.size(); ++i) {
    if (rate_level_count_[i] > 0) {
      basic_rate_ = rate_levels_[i];
      break;
    }
  }
}

size_t Scenario::memory_bytes() const {
  const auto vb = [](const auto& v) { return v.size() * sizeof(*v.data()); };
  return vb(user_session_) + vb(session_rate_) + vb(user_row_) + vb(nbr_ap_) +
         vb(nbr_level_) + vb(ap_row_) + vb(ap_user_) + vb(ap_user_level_) +
         vb(rate_levels_) + vb(rate_level_count_) + vb(ap_pos_) + vb(user_pos_);
}

Scenario Scenario::with_budget(double load_budget) const {
  Scenario sc = *this;
  sc.load_budget_ = load_budget;
  util::require(load_budget > 0.0 && load_budget <= 1.0,
                "Scenario: load budget must be in (0, 1]");
  return sc;
}

Scenario Scenario::with_session_rates(std::vector<double> session_rate_mbps) const {
  util::require(session_rate_mbps.size() == session_rate_.size(),
                "Scenario: session rate count mismatch");
  Scenario sc = *this;
  sc.session_rate_ = std::move(session_rate_mbps);
  for (const double r : sc.session_rate_) {
    util::require(r > 0.0, "Scenario: session rates must be positive");
  }
  return sc;
}

Scenario Scenario::apply_delta(const ScenarioDelta& delta,
                               std::vector<int>* dirty_aps) const {
  util::require(has_geometry() && table_.has_value(),
                "apply_delta: needs a geometric scenario");

  // Metadata carries over; the rows are rewritten below, movers' from a
  // fresh grid query and everyone else's verbatim.
  Scenario out;
  out.n_aps_ = n_aps_;
  out.n_users_ = n_users_;
  out.user_session_ = user_session_;
  out.session_rate_ = session_rate_;
  out.load_budget_ = load_budget_;
  out.rate_levels_ = rate_levels_;
  out.ap_pos_ = ap_pos_;
  out.user_pos_ = user_pos_;
  out.table_ = table_;
  out.grid_ = grid_;

  std::vector<char> ap_mark(static_cast<size_t>(n_aps_), 0);
  std::vector<int> dirty;
  const auto mark = [&](int a) {
    if (!ap_mark[static_cast<size_t>(a)]) {
      ap_mark[static_cast<size_t>(a)] = 1;
      dirty.push_back(a);
    }
  };

  // Session switches keep the row but change every (ap, session) group the
  // user belongs to on both sides of the switch.
  for (const auto& [u, s] : delta.rezapped) {
    util::require(u >= 0 && u < n_users_, "apply_delta: rezap of unknown user");
    util::require(s >= 0 && s < n_sessions(), "apply_delta: rezap to unknown session");
    if (out.user_session_[static_cast<size_t>(u)] == s) continue;
    out.user_session_[static_cast<size_t>(u)] = s;
    for (const int a : aps_of_user(u)) mark(a);
  }

  // Moves: last position wins per user.
  std::vector<char> moved(static_cast<size_t>(n_users_), 0);
  for (const auto& [u, p] : delta.moved) {
    util::require(u >= 0 && u < n_users_, "apply_delta: move of unknown user");
    util::require(std::isfinite(p.x) && std::isfinite(p.y),
                  "apply_delta: non-finite position");
    out.user_pos_[static_cast<size_t>(u)] = p;
    moved[static_cast<size_t>(u)] = 1;
  }

  // Old and new candidate APs of a mover alike see their member set change.
  std::vector<RowWriter> runs(1);
  std::vector<Cand> cand;
  for (int u = 0; u < n_users_; ++u) {
    const IndexSpan aps = aps_of_user(u);
    if (!moved[static_cast<size_t>(u)]) {
      runs[0].copy(aps, nbr_level_.data() + user_row_[static_cast<size_t>(u)]);
      continue;
    }
    for (const int a : aps) mark(a);
    query_row(grid_, ap_pos_, *table_, out.user_pos_[static_cast<size_t>(u)], cand);
    for (const Cand& c : cand) mark(c.ap);
    runs[0].add(cand);
  }
  out.set_rows(runs);

  if (dirty_aps != nullptr) {
    std::sort(dirty.begin(), dirty.end());
    *dirty_aps = std::move(dirty);
  }
  return out;
}

}  // namespace wmcast::wlan
