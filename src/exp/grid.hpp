// Named-axis sweep grids: the declarative half of the experiment
// orchestrator.  A bench declares its parameter axes once
//
//   SweepGrid grid;
//   grid.axis("nu", {0.15, 0.3, 0.4});
//   grid.axis("multiple", {0.4, 0.7, 1.0});
//
// and the grid enumerates the cartesian product in row-major order (the
// last axis varies fastest), matching the nesting order of the serial
// for-loops the benches used to hand-write — so migrated output keeps the
// exact row order.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace neatbound::exp {

/// One cell of the cartesian product: the value of every axis, plus the
/// cell's row-major index.  Self-contained — it carries its own copy of
/// the axis names, so points (and the SweepCells holding them) stay
/// valid after the grid they came from is gone.
class GridPoint {
 public:
  /// An empty point (no axes, index 0) — the placeholder value adaptive
  /// cell states start from before a real point is assigned.
  GridPoint() = default;
  GridPoint(std::vector<std::string> names, std::size_t index,
            std::vector<double> values);

  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  /// Value of the named axis; throws std::out_of_range for unknown names.
  [[nodiscard]] double value(const std::string& axis) const;
  /// Value by axis position (0 = first/outermost axis).
  [[nodiscard]] double value(std::size_t axis) const;
  [[nodiscard]] std::size_t axis_count() const noexcept {
    return values_.size();
  }

 private:
  std::vector<std::string> names_;
  std::size_t index_ = 0;
  std::vector<double> values_;
};

/// Cartesian product of named axes.  Axes hold doubles; a categorical
/// choice such as the adversary strategy is one sweep per choice, since
/// the adversary factory sees only each run's engine config.
class SweepGrid {
 public:
  /// Appends an axis; throws std::invalid_argument on empty values or a
  /// duplicate name.  Returns *this for chaining.
  SweepGrid& axis(std::string name, std::vector<double> values);

  [[nodiscard]] std::size_t axis_count() const noexcept {
    return names_.size();
  }
  /// Number of grid points: the product of axis sizes (1 for no axes —
  /// the empty product, a single all-defaults point).
  [[nodiscard]] std::size_t size() const noexcept;

  [[nodiscard]] const std::string& axis_name(std::size_t i) const;
  [[nodiscard]] const std::vector<double>& axis_values(std::size_t i) const;
  /// Position of the named axis; throws std::out_of_range if absent.
  [[nodiscard]] std::size_t axis_index(const std::string& name) const;

  /// The index-th point in row-major order (last axis fastest).
  [[nodiscard]] GridPoint point(std::size_t index) const;
  /// All points, in order.
  [[nodiscard]] std::vector<GridPoint> points() const;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<double>> values_;
};

}  // namespace neatbound::exp
