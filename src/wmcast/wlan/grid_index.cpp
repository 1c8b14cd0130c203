#include "wmcast/wlan/grid_index.hpp"

#include <algorithm>
#include <cmath>

#include "wmcast/util/assert.hpp"

namespace wmcast::wlan {

GridIndex::GridIndex(const std::vector<Point>& points, double cell_size) {
  util::require(cell_size > 0.0 && std::isfinite(cell_size),
                "GridIndex: cell size must be positive and finite");
  n_points_ = static_cast<int>(points.size());
  cell_ = cell_size;
  if (n_points_ == 0) return;

  double max_x = points[0].x, max_y = points[0].y;
  min_x_ = points[0].x;
  min_y_ = points[0].y;
  for (const auto& p : points) {
    util::require(std::isfinite(p.x) && std::isfinite(p.y),
                  "GridIndex: non-finite point");
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  // Cell counts in double, so an extreme extent cannot overflow the cast;
  // the cap keeps cell_start_ (4 bytes a cell) at most 256 MB.
  const double nx = std::floor((max_x - min_x_) / cell_) + 1.0;
  const double ny = std::floor((max_y - min_y_) / cell_) + 1.0;
  util::require(nx * ny <= static_cast<double>(kMaxCells),
                "GridIndex: the points span more than 2^26 cells of the given size");
  nx_ = static_cast<int>(nx);
  ny_ = static_cast<int>(ny);

  const size_t n_cells = static_cast<size_t>(nx_) * static_cast<size_t>(ny_);
  cell_start_.assign(n_cells + 1, 0);
  // Counting sort by cell id keeps point ids ascending within each bucket.
  std::vector<int32_t> cell_of(static_cast<size_t>(n_points_));
  for (int i = 0; i < n_points_; ++i) {
    const auto c = static_cast<int32_t>(cell_key(points[static_cast<size_t>(i)]));
    cell_of[static_cast<size_t>(i)] = c;
    ++cell_start_[static_cast<size_t>(c) + 1];
  }
  for (size_t c = 0; c < n_cells; ++c) cell_start_[c + 1] += cell_start_[c];
  bucket_.resize(static_cast<size_t>(n_points_));
  std::vector<int32_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  for (int i = 0; i < n_points_; ++i) {
    const auto c = static_cast<size_t>(cell_of[static_cast<size_t>(i)]);
    bucket_[static_cast<size_t>(fill[c]++)] = i;
  }
}

void GridIndex::cell_range(const Point& p, double radius, int& cx_lo, int& cx_hi,
                           int& cy_lo, int& cy_hi) const {
  // floor is monotone, so any AP with |ap - p| <= radius has its cell index
  // inside [floor((p-r-min)/cell), floor((p+r-min)/cell)]; clamping to the
  // grid extent cannot exclude it (cells outside hold no APs).
  cx_lo = cell_index(p.x - radius, min_x_, nx_);
  cx_hi = cell_index(p.x + radius, min_x_, nx_);
  cy_lo = cell_index(p.y - radius, min_y_, ny_);
  cy_hi = cell_index(p.y + radius, min_y_, ny_);
}

}  // namespace wmcast::wlan
