#include "core/leakage_table.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

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

namespace {

void writeGrid(std::ostream& out, const char* name, const Grid2D& grid) {
  out << name << ' ' << grid.rows() << ' ' << grid.cols();
  for (double v : grid.values()) {
    out << ' ' << v;
  }
  out << '\n';
}

Grid2D readGrid(std::istream& in, const std::string& expect) {
  std::string name;
  std::size_t rows = 0;
  std::size_t cols = 0;
  in >> name >> rows >> cols;
  require(in.good() && name == expect,
          "LeakageLibrary: expected grid '" + expect + "'");
  Grid2D grid(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      in >> grid.at(r, c);
    }
  }
  require(in.good(), "LeakageLibrary: truncated grid '" + expect + "'");
  return grid;
}

}  // namespace

void LeakageLibrary::serialize(std::ostream& out) const {
  out << std::setprecision(17);
  out << "nanoleak-lib 1\n";
  out << "meta " << meta_.technology_name << ' ' << meta_.vdd << ' '
      << meta_.temperature_k << '\n';
  out << "kinds " << tables_.size() << '\n';
  for (const auto& [kind, vectors] : tables_) {
    out << "kind " << gates::toString(kind) << " vectors " << vectors.size()
        << '\n';
    for (const VectorTable& table : vectors) {
      out << "nominal " << table.nominal.subthreshold << ' '
          << table.nominal.gate << ' ' << table.nominal.btbt << '\n';
      out << "isolated " << table.isolated_nominal.subthreshold << ' '
          << table.isolated_nominal.gate << ' ' << table.isolated_nominal.btbt
          << '\n';
      out << "pincur " << table.pin_current.size();
      for (double v : table.pin_current) {
        out << ' ' << v;
      }
      out << '\n';
      out << "il_axis " << table.il_axis.size();
      for (double v : table.il_axis.points()) {
        out << ' ' << v;
      }
      out << '\n';
      out << "ol_axis " << table.ol_axis.size();
      for (double v : table.ol_axis.points()) {
        out << ' ' << v;
      }
      out << '\n';
      writeGrid(out, "sub", table.subthreshold);
      writeGrid(out, "gate", table.gate);
      writeGrid(out, "btbt", table.btbt);
      out << "pingrids " << table.pin_current_grid.size() << '\n';
      for (const Grid2D& grid : table.pin_current_grid) {
        writeGrid(out, "pingrid", grid);
      }
    }
  }
}

LeakageLibrary LeakageLibrary::deserialize(std::istream& in) {
  std::string tag;
  int version = 0;
  in >> tag >> version;
  require(in.good() && tag == "nanoleak-lib" && version == 1,
          "LeakageLibrary: bad header");
  Meta meta;
  in >> tag >> meta.technology_name >> meta.vdd >> meta.temperature_k;
  require(in.good() && tag == "meta", "LeakageLibrary: bad meta line");
  LeakageLibrary library(meta);

  std::size_t kind_count = 0;
  in >> tag >> kind_count;
  require(in.good() && tag == "kinds", "LeakageLibrary: bad kinds line");
  for (std::size_t k = 0; k < kind_count; ++k) {
    std::string kind_name;
    std::size_t vector_count = 0;
    in >> tag >> kind_name;
    require(in.good() && tag == "kind", "LeakageLibrary: bad kind line");
    in >> tag >> vector_count;
    require(in.good() && tag == "vectors",
            "LeakageLibrary: bad vectors count");
    const gates::GateKind kind = gates::gateKindFromString(kind_name);
    std::vector<VectorTable> vectors;
    vectors.reserve(vector_count);
    for (std::size_t v = 0; v < vector_count; ++v) {
      VectorTable table;
      in >> tag >> table.nominal.subthreshold >> table.nominal.gate >>
          table.nominal.btbt;
      require(in.good() && tag == "nominal",
              "LeakageLibrary: bad nominal line");
      in >> tag >> table.isolated_nominal.subthreshold >>
          table.isolated_nominal.gate >> table.isolated_nominal.btbt;
      require(in.good() && tag == "isolated",
              "LeakageLibrary: bad isolated line");
      std::size_t pins = 0;
      in >> tag >> pins;
      require(in.good() && tag == "pincur",
              "LeakageLibrary: bad pincur line");
      table.pin_current.resize(pins);
      for (double& value : table.pin_current) {
        in >> value;
      }
      auto readAxis = [&](const char* expect) {
        std::string name;
        std::size_t n = 0;
        in >> name >> n;
        require(in.good() && name == expect,
                std::string("LeakageLibrary: expected axis ") + expect);
        std::vector<double> points(n);
        for (double& p : points) {
          in >> p;
        }
        require(in.good(), "LeakageLibrary: truncated axis");
        return Axis(std::move(points));
      };
      table.il_axis = readAxis("il_axis");
      table.ol_axis = readAxis("ol_axis");
      table.subthreshold = readGrid(in, "sub");
      table.gate = readGrid(in, "gate");
      table.btbt = readGrid(in, "btbt");
      std::size_t grid_count = 0;
      in >> tag >> grid_count;
      require(in.good() && tag == "pingrids",
              "LeakageLibrary: bad pingrids line");
      for (std::size_t g = 0; g < grid_count; ++g) {
        table.pin_current_grid.push_back(readGrid(in, "pingrid"));
      }
      vectors.push_back(std::move(table));
    }
    library.insert(kind, std::move(vectors));
  }
  return library;
}

void LeakageLibrary::saveFile(const std::string& path) const {
  std::ofstream out(path);
  require(out.good(), "LeakageLibrary::saveFile: cannot open '" + path + "'");
  serialize(out);
  require(out.good(), "LeakageLibrary::saveFile: write failed");
}

LeakageLibrary LeakageLibrary::loadFile(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "LeakageLibrary::loadFile: cannot open '" + path + "'");
  return deserialize(in);
}

}  // namespace nanoleak::core
