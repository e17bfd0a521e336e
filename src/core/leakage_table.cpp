#include "core/leakage_table.h"

#include "util/error.h"

namespace nanoleak::core {

Axis::Axis(std::vector<double> points) : points_(std::move(points)) {
  require(!points_.empty(), "Axis: needs at least one point");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    require(points_[i] > points_[i - 1], "Axis: points must be increasing");
  }
}

Axis::Location Axis::locate(double x) const {
  return locateOnAxis(points_.data(), points_.size(), x);
}

Grid2D::Grid2D(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), values_(rows * cols, 0.0) {
  require(rows >= 1 && cols >= 1, "Grid2D: empty dimensions");
}

double& Grid2D::at(std::size_t row, std::size_t col) {
  require(row < rows_ && col < cols_, "Grid2D::at: out of range");
  return values_[row * cols_ + col];
}

double Grid2D::at(std::size_t row, std::size_t col) const {
  require(row < rows_ && col < cols_, "Grid2D::at: out of range");
  return values_[row * cols_ + col];
}

double Grid2D::interpolate(const Axis::Location& row,
                           const Axis::Location& col) const {
  require(row.index < rows_ && col.index < cols_,
          "Grid2D::interpolate: location out of range");
  return Bilinear(row, col, rows_, cols_, 1)(values_.data());
}

device::LeakageBreakdown VectorTable::lookup(double il, double ol) const {
  const Axis::Location row = il_axis.locate(il);
  const Axis::Location col = ol_axis.locate(ol);
  device::LeakageBreakdown breakdown;
  breakdown.subthreshold = subthreshold.interpolate(row, col);
  breakdown.gate = gate.interpolate(row, col);
  breakdown.btbt = btbt.interpolate(row, col);
  return breakdown;
}

double VectorTable::pinCurrentAt(int pin, double il, double ol) const {
  const auto index = static_cast<std::size_t>(pin);
  require(index < pin_current.size(),
          "VectorTable::pinCurrentAt: pin out of range");
  if (index >= pin_current_grid.size()) {
    return pin_current[index];
  }
  return pin_current_grid[index].interpolate(il_axis.locate(il),
                                             ol_axis.locate(ol));
}

std::size_t vectorIndex(const std::vector<bool>& input_values) {
  require(input_values.size() <= 16, "vectorIndex: too many pins");
  std::size_t index = 0;
  for (std::size_t k = 0; k < input_values.size(); ++k) {
    if (input_values[k]) {
      index |= (std::size_t{1} << k);
    }
  }
  return index;
}

bool LeakageLibrary::has(gates::GateKind kind) const {
  return tables_.find(kind) != tables_.end();
}

const std::vector<VectorTable>& LeakageLibrary::tables(
    gates::GateKind kind) const {
  const auto it = tables_.find(kind);
  if (it == tables_.end()) {
    throwError(std::string("LeakageLibrary: no tables for ") +
               gates::toString(kind));
  }
  return it->second;
}

const VectorTable& LeakageLibrary::table(gates::GateKind kind,
                                         std::size_t vector_index) const {
  const auto& vectors = tables(kind);
  require(vector_index < vectors.size(),
          "LeakageLibrary::table: vector index out of range");
  return vectors[vector_index];
}

void LeakageLibrary::insert(gates::GateKind kind,
                            std::vector<VectorTable> tables) {
  const auto expected =
      std::size_t{1} << static_cast<std::size_t>(gates::inputCount(kind));
  require(tables.size() == expected,
          "LeakageLibrary::insert: wrong number of vector tables");
  tables_[kind] = std::move(tables);
}

}  // namespace nanoleak::core
