/// @file
/// Pre-characterized leakage tables: the "leakage components of different
/// gate type, size, loading" input of the paper's Fig. 13 algorithm.
///
/// For every (gate kind, input vector) the library stores the nominal
/// leakage decomposition, the signed gate-tunneling current each input pin
/// injects into its net, and per-component leakage surfaces over an
/// (input-loading, output-loading) magnitude grid, bilinearly interpolated
/// at estimation time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "device/leakage_breakdown.h"
#include "gates/gate_library.h"

namespace nanoleak::core {

/// Sorted interpolation axis with clamped lookup.
class Axis {
 public:
  /// Requires at least one strictly increasing point.
  explicit Axis(std::vector<double> points);

  /// Number of axis points.
  std::size_t size() const { return points_.size(); }
  /// Point `i` (unchecked).
  double operator[](std::size_t i) const { return points_[i]; }
  /// All axis points, ascending.
  const std::vector<double>& points() const { return points_; }

  /// Segment index + fraction for x, clamped to the axis range.
  struct Location {
    /// Index of the segment's lower point.
    std::size_t index;
    /// Position within the segment, in [0, 1].
    double fraction;
  };
  /// Locates x on the axis (clamped to the range); see locateOnAxis().
  Location locate(double x) const;

 private:
  std::vector<double> points_;
};

/// Locates x on the ascending points [points, points + n), n >= 1: the
/// index of std::upper_bound's segment, clamped to the range, and the
/// fraction (x - lo) / (hi - lo) within it. x at or below the first point
/// (or NaN) gives {0, 0}, at or above the last {n - 2, 1}, a single-point
/// axis always {0, 0}. The one locate behind Axis::locate and the
/// estimation plan's table arena; it counts the interior points at or
/// below the clamped x instead of searching, so random loadings do not
/// mispredict.
inline Axis::Location locateOnAxis(const double* points, std::size_t n,
                                   double x) {
  if (n == 1) {
    return {0, 0.0};
  }
  // Selects rather than std::min/max: x equal to an end point (a zero of
  // either sign included) or NaN clamps to the point itself, so the end
  // fractions are exactly +0 and 1.
  double clamped = x > points[0] ? x : points[0];
  clamped = clamped < points[n - 1] ? clamped : points[n - 1];
  std::size_t index = 0;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    index += clamped >= points[i] ? 1 : 0;
  }
  const double lo = points[index];
  const double hi = points[index + 1];
  return {index, (clamped - lo) / (hi - lo)};
}

/// One bilinear interpolation on a rows x cols grid whose cell (r, c)
/// sits at `(r * cols + c) * stride` from the grid start: the four corner
/// cells and the two fractions, computed once and applied to as many
/// grids of that shape as share the location (stride 1 for a Grid2D,
/// stride 3 for the arena's interleaved components).
struct Bilinear {
  /// Corners at two located axis positions (indices within the grid).
  Bilinear(const Axis::Location& row, const Axis::Location& col,
           std::size_t rows, std::size_t cols, std::size_t stride)
      : row_fraction(row.fraction), col_fraction(col.fraction) {
    const std::size_t r1 = std::min(row.index + 1, rows - 1);
    const std::size_t c1 = std::min(col.index + 1, cols - 1);
    v00 = (row.index * cols + col.index) * stride;
    v01 = (row.index * cols + c1) * stride;
    v10 = (r1 * cols + col.index) * stride;
    v11 = (r1 * cols + c1) * stride;
  }

  /// The interpolated value of the grid starting at `cells`.
  double operator()(const double* cells) const {
    const double a = cells[v00];
    const double b = cells[v01];
    const double c = cells[v10];
    const double d = cells[v11];
    const double top = a + (b - a) * col_fraction;
    const double bottom = c + (d - c) * col_fraction;
    return top + (bottom - top) * row_fraction;
  }

  /// Offset of the (row, col) cell.
  std::size_t v00;
  /// Offset of the (row, col + 1) cell, clamped to the grid.
  std::size_t v01;
  /// Offset of the (row + 1, col) cell, clamped to the grid.
  std::size_t v10;
  /// Offset of the (row + 1, col + 1) cell, clamped to the grid.
  std::size_t v11;
  /// Position between the two rows, in [0, 1].
  double row_fraction;
  /// Position between the two columns, in [0, 1].
  double col_fraction;
};

/// Row-major 2-D value grid with bilinear interpolation.
class Grid2D {
 public:
  /// An empty 0 x 0 grid.
  Grid2D() = default;
  /// A zero-filled rows x cols grid.
  Grid2D(std::size_t rows, std::size_t cols);

  /// Number of rows.
  std::size_t rows() const { return rows_; }
  /// Number of columns.
  std::size_t cols() const { return cols_; }
  /// Mutable cell access (unchecked).
  double& at(std::size_t row, std::size_t col);
  /// Cell access (unchecked).
  double at(std::size_t row, std::size_t col) const;
  /// Bilinear interpolation at two located axis positions (indices
  /// within the grid; throws nanoleak::Error otherwise).
  double interpolate(const Axis::Location& row,
                     const Axis::Location& col) const;
  /// The raw row-major cell values.
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> values_;
};

/// Characterized data for one (gate kind, input vector).
struct VectorTable {
  /// Nominal decomposition in the characterization fixture at zero loading
  /// currents [A] (the paper's L_NOM: real drivers attached, no external
  /// loading).
  device::LeakageBreakdown nominal;
  /// Decomposition of the gate in isolation with ideal rail voltages at
  /// its pins [A]. This is the "traditional" per-gate value the paper's
  /// no-loading accumulation uses, and the baseline of its Fig. 12b/c
  /// loading-variation percentages.
  device::LeakageBreakdown isolated_nominal;
  /// Signed tunneling current each input pin injects into its net at the
  /// nominal point [A] (positive raises the net).
  std::vector<double> pin_current;
  /// Input-loading magnitude axis [A] (>= 0; must include 0).
  Axis il_axis{std::vector<double>{0.0}};
  /// Output-loading magnitude axis [A] (>= 0; must include 0).
  Axis ol_axis{std::vector<double>{0.0}};
  /// Subthreshold leakage surface [A], indexed (il, ol).
  Grid2D subthreshold;
  /// Gate-tunneling leakage surface [A], indexed (il, ol).
  Grid2D gate;
  /// Junction-BTBT leakage surface [A], indexed (il, ol).
  Grid2D btbt;
  /// Pin-current surfaces [A], one per input pin, indexed (il, ol). Only
  /// referenceEstimate() reads them, for propagation beyond one level
  /// (the Characterizer always stores them; hand-built tables may not).
  std::vector<Grid2D> pin_current_grid;

  /// Interpolated decomposition at input/output loading magnitudes [A].
  device::LeakageBreakdown lookup(double il, double ol) const;
  /// Interpolated pin current; falls back to the nominal value when the
  /// grids were not stored.
  double pinCurrentAt(int pin, double il, double ol) const;
};

/// Index of an input vector: bit k holds pin k's logic value.
std::size_t vectorIndex(const std::vector<bool>& input_values);

/// The characterized library for one technology.
class LeakageLibrary {
 public:
  /// Technology fingerprint: the device pair, supply and temperature the
  /// tables were characterized at.
  struct Meta {
    /// Display name of the characterized device pair.
    std::string technology_name = "default";
    /// Supply voltage [V] the tables were characterized at.
    double vdd = 1.0;
    /// Temperature [K] the tables were characterized at.
    double temperature_k = 300.0;
  };

  /// An empty library with default meta.
  LeakageLibrary() = default;
  /// An empty library carrying a technology fingerprint.
  explicit LeakageLibrary(Meta meta) : meta_(std::move(meta)) {}

  /// The technology fingerprint.
  const Meta& meta() const { return meta_; }

  /// True when `kind` has tables in this library.
  bool has(gates::GateKind kind) const;
  /// All vectors of a kind, indexed by vectorIndex().
  const std::vector<VectorTable>& tables(gates::GateKind kind) const;
  /// One (kind, input vector) table.
  const VectorTable& table(gates::GateKind kind,
                           std::size_t vector_index) const;
  /// Adds (or replaces) a kind's tables.
  void insert(gates::GateKind kind, std::vector<VectorTable> tables);

 private:
  Meta meta_;
  std::map<gates::GateKind, std::vector<VectorTable>> tables_;
};

}  // namespace nanoleak::core
