#include "core/leakage_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace nanoleak::core {
namespace {

TEST(AxisTest, RejectsBadPoints) {
  EXPECT_THROW(Axis(std::vector<double>{}), Error);
  EXPECT_THROW(Axis({1.0, 1.0}), Error);
  EXPECT_THROW(Axis({2.0, 1.0}), Error);
}

TEST(AxisTest, LocateClampsAndInterpolates) {
  const Axis axis({0.0, 1.0, 3.0});
  EXPECT_EQ(axis.locate(-5.0).index, 0u);
  EXPECT_DOUBLE_EQ(axis.locate(-5.0).fraction, 0.0);
  EXPECT_EQ(axis.locate(10.0).index, 1u);
  EXPECT_DOUBLE_EQ(axis.locate(10.0).fraction, 1.0);
  const auto mid = axis.locate(2.0);
  EXPECT_EQ(mid.index, 1u);
  EXPECT_DOUBLE_EQ(mid.fraction, 0.5);
  const auto first = axis.locate(0.5);
  EXPECT_EQ(first.index, 0u);
  EXPECT_DOUBLE_EQ(first.fraction, 0.5);
}

TEST(AxisTest, LocateMatchesUpperBoundSearch) {
  // The segment std::upper_bound finds, clamped to the axis, with the
  // fraction (x - lo) / (hi - lo) - on random axes of 2 to 9 points, at
  // the points themselves, between them and beyond both ends.
  Rng rng(42);
  for (std::size_t n = 2; n <= 9; ++n) {
    std::vector<double> points{0.0};
    for (std::size_t i = 1; i < n; ++i) {
      points.push_back(points.back() + rng.uniform(0.1e-6, 2e-6));
    }
    const Axis axis(points);
    std::vector<double> xs = points;
    for (int k = 0; k < 64; ++k) {
      xs.push_back(rng.uniform(-1e-6, points.back() + 1e-6));
    }
    for (double x : xs) {
      const Axis::Location got = axis.locate(x);
      if (x <= points.front()) {
        EXPECT_EQ(got.index, 0u);
        EXPECT_EQ(got.fraction, 0.0);
      } else if (x >= points.back()) {
        EXPECT_EQ(got.index, n - 2);
        EXPECT_EQ(got.fraction, 1.0);
      } else {
        const auto index = static_cast<std::size_t>(
            std::upper_bound(points.begin(), points.end(), x) -
            points.begin() - 1);
        EXPECT_EQ(got.index, index) << "x=" << x;
        EXPECT_EQ(got.fraction, (x - points[index]) /
                                    (points[index + 1] - points[index]))
            << "x=" << x;
      }
    }
  }
  // A negative zero and NaN clamp to the first point: fraction +0.
  const Axis axis({0.0, 1.0, 3.0});
  EXPECT_EQ(axis.locate(-0.0).index, 0u);
  EXPECT_FALSE(std::signbit(axis.locate(-0.0).fraction));
  EXPECT_EQ(axis.locate(std::nan("")).index, 0u);
  EXPECT_EQ(axis.locate(std::nan("")).fraction, 0.0);
}

TEST(AxisTest, SinglePointAxis) {
  const Axis axis(std::vector<double>{0.0});
  EXPECT_EQ(axis.locate(123.0).index, 0u);
  EXPECT_DOUBLE_EQ(axis.locate(123.0).fraction, 0.0);
}

TEST(Grid2DTest, BilinearInterpolationIsExactOnPlane) {
  // f(i, j) = 2i + 3j is reproduced exactly by bilinear interpolation.
  const Axis rows({0.0, 1.0, 2.0});
  const Axis cols({0.0, 1.0});
  Grid2D grid(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      grid.at(i, j) = 2.0 * static_cast<double>(i) +
                      3.0 * static_cast<double>(j);
    }
  }
  for (double x : {0.0, 0.4, 1.5, 2.0}) {
    for (double y : {0.0, 0.3, 1.0}) {
      EXPECT_NEAR(grid.interpolate(rows.locate(x), cols.locate(y)),
                  2.0 * x + 3.0 * y, 1e-12);
    }
  }
}

TEST(Grid2DTest, OutOfRangeThrows) {
  Grid2D grid(2, 2);
  EXPECT_THROW(grid.at(2, 0), Error);
  EXPECT_THROW(grid.at(0, 2), Error);
}

TEST(VectorIndexTest, LittleEndianPins) {
  EXPECT_EQ(vectorIndex({false, false}), 0u);
  EXPECT_EQ(vectorIndex({true, false}), 1u);
  EXPECT_EQ(vectorIndex({false, true}), 2u);
  EXPECT_EQ(vectorIndex({true, true}), 3u);
}

VectorTable makeTable() {
  VectorTable table;
  table.nominal = {1e-7, 2e-7, 3e-8};
  table.isolated_nominal = {0.9e-7, 1.9e-7, 2.9e-8};
  table.pin_current = {5e-8, -4e-8};
  table.il_axis = Axis({0.0, 1e-6});
  table.ol_axis = Axis({0.0, 2e-6});
  table.subthreshold = Grid2D(2, 2);
  table.gate = Grid2D(2, 2);
  table.btbt = Grid2D(2, 2);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      table.subthreshold.at(i, j) = 1e-7 * (1.0 + static_cast<double>(i));
      table.gate.at(i, j) = 2e-7;
      table.btbt.at(i, j) = 3e-8 * (1.0 + static_cast<double>(j));
    }
  }
  return table;
}

TEST(VectorTableTest, LookupInterpolates) {
  const VectorTable table = makeTable();
  const auto mid = table.lookup(0.5e-6, 0.0);
  EXPECT_NEAR(mid.subthreshold, 1.5e-7, 1e-15);
  EXPECT_NEAR(mid.gate, 2e-7, 1e-15);
  const auto corner = table.lookup(1e-6, 2e-6);
  EXPECT_NEAR(corner.subthreshold, 2e-7, 1e-15);
  EXPECT_NEAR(corner.btbt, 6e-8, 1e-15);
}

TEST(VectorTableTest, PinCurrentFallsBackToNominal) {
  const VectorTable table = makeTable();
  EXPECT_DOUBLE_EQ(table.pinCurrentAt(0, 1e-6, 1e-6), 5e-8);
  EXPECT_DOUBLE_EQ(table.pinCurrentAt(1, 0.0, 0.0), -4e-8);
  EXPECT_THROW(table.pinCurrentAt(2, 0.0, 0.0), Error);
}

TEST(LeakageLibraryTest, InsertValidatesVectorCount) {
  LeakageLibrary library;
  std::vector<VectorTable> tables(2, makeTable());
  EXPECT_NO_THROW(library.insert(gates::GateKind::kInv, tables));
  EXPECT_THROW(library.insert(gates::GateKind::kNand2, tables), Error);
  EXPECT_TRUE(library.has(gates::GateKind::kInv));
  EXPECT_FALSE(library.has(gates::GateKind::kNand2));
  EXPECT_THROW(library.tables(gates::GateKind::kNand2), Error);
  EXPECT_THROW(library.table(gates::GateKind::kInv, 5), Error);
}

}  // namespace
}  // namespace nanoleak::core
