// Uniform-grid spatial index over AP positions. With cell size equal to the
// rate table's maximum coverage radius, every point's in-range APs lie in the
// 3x3 cell neighborhood of its own cell, so candidate generation is O(k)
// in the local AP density instead of O(n_aps) — the geometric model's link
// matrix is sparse by construction (DESIGN.md §11).
//
// Queries are robust at cell boundaries: the candidate cell rectangle is
// computed from floor((coord ± radius - origin) / cell), which by floor's
// monotonicity always covers the closed disk of the query radius, including
// points outside the indexed bounding box and APs at exactly the maximum
// range (rate_for_distance uses <=).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "wmcast/wlan/geometry.hpp"

namespace wmcast::wlan {

class GridIndex {
 public:
  GridIndex() = default;

  /// Indexes `points` with square cells of side `cell_size` (> 0). The grid
  /// origin/extent is the bounding box of the points; queries may lie
  /// anywhere in the plane.
  GridIndex(const std::vector<Point>& points, double cell_size);

  bool empty() const { return n_points_ == 0; }
  int n_points() const { return n_points_; }
  double cell_size() const { return cell_; }

  /// Equal iff built from the same points and cell size (the construction is
  /// deterministic, so field-wise comparison is exact).
  friend bool operator==(const GridIndex&, const GridIndex&) = default;

  /// Row-major key of the cell containing `p`, clamped to the indexed extent.
  /// Sorting by (cell_key, id) groups spatially adjacent points while keeping
  /// a deterministic total order — consumers use it to walk per-point work in
  /// cache-friendly cell order (points in one cell share most of their
  /// in-range neighborhood).
  int64_t cell_key(const Point& p) const {
    if (n_points_ == 0) return 0;
    return static_cast<int64_t>(cell_index(p.y, min_y_, ny_)) * nx_ +
           cell_index(p.x, min_x_, nx_);
  }

  /// Calls fn(i) for every indexed point i whose cell intersects the closed
  /// disk (center `p`, radius `radius`). Candidates are a superset of the
  /// points within `radius`; callers filter by exact distance. Within one
  /// cell, indices come out ascending; cells are visited row-major, so the
  /// overall candidate order is deterministic (but not globally sorted).
  template <typename Fn>
  void for_each_candidate(const Point& p, double radius, Fn&& fn) const {
    if (n_points_ == 0) return;
    int cx_lo, cx_hi, cy_lo, cy_hi;
    cell_range(p, radius, cx_lo, cx_hi, cy_lo, cy_hi);
    for (int cy = cy_lo; cy <= cy_hi; ++cy) {
      for (int cx = cx_lo; cx <= cx_hi; ++cx) {
        const size_t c = static_cast<size_t>(cy) * static_cast<size_t>(nx_) +
                         static_cast<size_t>(cx);
        for (int32_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
          fn(static_cast<int>(bucket_[static_cast<size_t>(k)]));
        }
      }
    }
  }

 private:
  /// The grid's cell count is capped (GridIndex throws beyond it), so a
  /// scenario spread over an extreme extent fails clearly instead of
  /// exhausting memory.
  static constexpr int64_t kMaxCells = int64_t{1} << 26;

  /// Index along one axis (origin mn, n cells) of the cell holding
  /// coordinate v, clamped to the grid. The clamp happens in double, so a
  /// coordinate far outside the grid cannot overflow the int cast; a NaN
  /// coordinate fails `f > 0` and lands in cell 0.
  int cell_index(double v, double mn, int n) const {
    const double f = std::floor((v - mn) / cell_);
    if (!(f > 0.0)) return 0;
    return f < n - 1 ? static_cast<int>(f) : n - 1;
  }

  /// Clamped cell rectangle covering the disk (center p, radius r).
  void cell_range(const Point& p, double radius, int& cx_lo, int& cx_hi, int& cy_lo,
                  int& cy_hi) const;

  int n_points_ = 0;
  double cell_ = 1.0;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  int nx_ = 0;  // cells per row
  int ny_ = 0;  // rows
  std::vector<int32_t> cell_start_;  // CSR offsets, nx_*ny_ + 1
  std::vector<int32_t> bucket_;      // point ids, ascending within each cell
};

}  // namespace wmcast::wlan
