#include "util/statistics.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.h"

namespace nanoleak {
namespace {

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_THROW(stats.min(), Error);
  EXPECT_THROW(stats.max(), Error);
}

TEST(RunningStatsTest, KnownSample) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(v);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, StableAtNanoampScale) {
  RunningStats stats;
  for (int i = 0; i < 1000; ++i) {
    stats.add(1e-9 + 1e-12 * (i % 10));
  }
  EXPECT_NEAR(stats.mean(), 1e-9 + 4.5e-12, 1e-18);
  EXPECT_GT(stats.variance(), 0.0);
}

TEST(QuantileTest, InterpolatesSortedSample) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantileSorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantileSorted(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantileSorted(sorted, 0.5), 2.5);
}

TEST(QuantileTest, RejectsBadInput) {
  const std::vector<double> empty;
  EXPECT_THROW(quantileSorted(empty, 0.5), Error);
  const std::vector<double> one = {1.0};
  EXPECT_THROW(quantileSorted(one, 1.5), Error);
}

TEST(SummarizeTest, MatchesKnownValues) {
  const std::vector<double> values = {5.0, 1.0, 3.0, 2.0, 4.0};
  const SampleSummary summary = summarize(values);
  EXPECT_EQ(summary.count, 5u);
  EXPECT_DOUBLE_EQ(summary.mean, 3.0);
  EXPECT_DOUBLE_EQ(summary.median, 3.0);
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 5.0);
}

TEST(SummarizeTest, EmptySampleIsZeroed) {
  const SampleSummary summary = summarize({});
  EXPECT_EQ(summary.count, 0u);
  EXPECT_DOUBLE_EQ(summary.mean, 0.0);
}

}  // namespace
}  // namespace nanoleak
