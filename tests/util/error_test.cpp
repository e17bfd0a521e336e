#include "util/error.h"

#include <gtest/gtest.h>

#include <string>
#include <typeinfo>

#include "util/linalg.h"

namespace nanoleak {
namespace {

TEST(ErrorTest, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "fine"));
  try {
    require(false, "boom");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

// Every require() overload and throwError() throws exactly nanoleak::Error
// carrying the message verbatim. The messages here are longer than the
// small-string buffer, the case where building one allocates.
TEST(ErrorTest, RequireOverloadsThrowErrorWithExactMessage) {
  const char* const literal = "a literal message past the small-string size";
  const std::string built =
      "a built message: expected " + std::to_string(5) + ", got 3";
  EXPECT_NO_THROW(require(true, literal));
  EXPECT_NO_THROW(require(true, built));
  const auto expectThrows = [](const auto& fn, const std::string& message) {
    try {
      fn();
      FAIL() << "expected throw: " << message;
    } catch (const Error& e) {
      EXPECT_EQ(typeid(e), typeid(Error));
      EXPECT_EQ(std::string(e.what()), message);
    }
  };
  expectThrows([&] { require(false, literal); }, literal);
  expectThrows([&] { require(false, built); }, built);
  expectThrows([&] { throwError(literal); }, literal);
  expectThrows([&] { throwError(built); }, built);
}

TEST(ErrorTest, ParseErrorCarriesLine) {
  const ParseError error("bad token", 42);
  EXPECT_EQ(error.line(), 42);
  EXPECT_NE(std::string(error.what()).find("line 42"), std::string::npos);
}

TEST(ErrorTest, ParseErrorWithoutLine) {
  const ParseError error("bad token", 0);
  EXPECT_EQ(error.line(), 0);
  EXPECT_EQ(std::string(error.what()), "bad token");
}

TEST(ErrorTest, HierarchyIsCatchable) {
  EXPECT_THROW(throw ConvergenceError("x"), Error);
  EXPECT_THROW(throw ParseError("x", 1), Error);
  EXPECT_THROW(throw Error("x"), std::runtime_error);
}

TEST(LinalgTest, SolvesIdentity) {
  std::vector<double> a = {1, 0, 0, 1};
  std::vector<double> b = {3, 4};
  ASSERT_TRUE(solveDense(a, b, 2));
  EXPECT_DOUBLE_EQ(b[0], 3.0);
  EXPECT_DOUBLE_EQ(b[1], 4.0);
}

TEST(LinalgTest, SolvesKnownSystem) {
  // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
  std::vector<double> a = {2, 1, 1, 3};
  std::vector<double> b = {5, 10};
  ASSERT_TRUE(solveDense(a, b, 2));
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(LinalgTest, PivotsZeroDiagonal) {
  // First pivot is zero; needs row exchange.
  std::vector<double> a = {0, 1, 1, 0};
  std::vector<double> b = {2, 3};
  ASSERT_TRUE(solveDense(a, b, 2));
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(LinalgTest, DetectsSingular) {
  std::vector<double> a = {1, 2, 2, 4};
  std::vector<double> b = {1, 2};
  EXPECT_FALSE(solveDense(a, b, 2));
}

TEST(LinalgTest, Solves4x4) {
  // Diagonally dominant random-ish system; verify by substitution.
  std::vector<double> a = {5, 1, 0, 2,  //
                           1, 6, 2, 0,  //
                           0, 2, 7, 1,  //
                           2, 0, 1, 8};
  const std::vector<double> a_copy = a;
  std::vector<double> b = {1, 2, 3, 4};
  const std::vector<double> b_copy = b;
  ASSERT_TRUE(solveDense(a, b, 4));
  for (int i = 0; i < 4; ++i) {
    double sum = 0.0;
    for (int j = 0; j < 4; ++j) {
      sum += a_copy[static_cast<std::size_t>(i * 4 + j)] *
             b[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(sum, b_copy[static_cast<std::size_t>(i)], 1e-10);
  }
}

}  // namespace
}  // namespace nanoleak
