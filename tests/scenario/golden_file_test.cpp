#include "scenario/golden_file.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "../mutation_fuzz.h"
#include "util/error.h"

namespace nanoleak::scenario {
namespace {

SuiteResult sampleSuite() {
  SuiteResult suite;
  suite.suite = "demo";
  ScenarioResult a;
  a.name = "est/c17";
  a.metrics = {{"gates", 6.0}, {"total_mean_A", 1.9986311847309895e-05}};
  ScenarioResult b;
  b.name = "golden/\"quoted\"\n";
  b.metrics = {{"vectors", 2.0}};
  suite.scenarios = {a, b};
  return suite;
}

TEST(GoldenFileTest, SerializeParseRoundTripsExactly) {
  const SuiteResult original = sampleSuite();
  const std::string json = serializeSuite(original);
  const SuiteResult parsed = parseSuite(json);
  EXPECT_EQ(parsed.suite, original.suite);
  ASSERT_EQ(parsed.scenarios.size(), original.scenarios.size());
  for (std::size_t i = 0; i < parsed.scenarios.size(); ++i) {
    EXPECT_EQ(parsed.scenarios[i].name, original.scenarios[i].name);
    ASSERT_EQ(parsed.scenarios[i].metrics.size(),
              original.scenarios[i].metrics.size());
    for (std::size_t m = 0; m < parsed.scenarios[i].metrics.size(); ++m) {
      EXPECT_EQ(parsed.scenarios[i].metrics[m].name,
                original.scenarios[i].metrics[m].name);
      // %.17g is exact for doubles: parse must return the same bits.
      EXPECT_EQ(parsed.scenarios[i].metrics[m].value,
                original.scenarios[i].metrics[m].value);
    }
  }
  // Canonical: serializing the parsed result reproduces the bytes.
  EXPECT_EQ(serializeSuite(parsed), json);
}

TEST(GoldenFileTest, CanonicalFloatFormattingRoundTripsExtremes) {
  for (double value :
       {0.0, -0.0, 1.0, 1.0 / 3.0, 6.0221e23, 1.6e-19,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        -9.7055134147890623e-06}) {
    const std::string text = formatCanonical(value);
    // strtod, not std::stod: stod throws out_of_range on subnormals.
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
}

TEST(GoldenFileTest, EmptySuiteAndEmptyMetricsSerialize) {
  SuiteResult empty;
  empty.suite = "empty";
  const SuiteResult parsed = parseSuite(serializeSuite(empty));
  EXPECT_EQ(parsed.suite, "empty");
  EXPECT_TRUE(parsed.scenarios.empty());

  ScenarioResult bare;
  bare.name = "bare";
  empty.scenarios = {bare};
  const SuiteResult parsed2 = parseSuite(serializeSuite(empty));
  ASSERT_EQ(parsed2.scenarios.size(), 1u);
  EXPECT_TRUE(parsed2.scenarios[0].metrics.empty());
}

TEST(GoldenFileTest, RejectsNonFiniteMetrics) {
  SuiteResult suite;
  suite.suite = "bad";
  ScenarioResult sc;
  sc.name = "x";
  sc.metrics = {{"nan", std::numeric_limits<double>::quiet_NaN()}};
  suite.scenarios = {sc};
  EXPECT_THROW(serializeSuite(suite), Error);
  sc.metrics = {{"inf", std::numeric_limits<double>::infinity()}};
  suite.scenarios = {sc};
  EXPECT_THROW(serializeSuite(suite), Error);
}

TEST(GoldenFileTest, MalformedJsonThrowsParseErrorWithLine) {
  EXPECT_THROW(parseSuite(""), ParseError);
  EXPECT_THROW(parseSuite("{"), ParseError);
  EXPECT_THROW(parseSuite("{\"format\": }"), ParseError);
  EXPECT_THROW(parseSuite("[] trailing"), ParseError);
  // Overflowing literals must not round-trip to Inf (they would make
  // tolerance checks vacuous), and \u escapes must be 4 hex digits.
  EXPECT_THROW(parseSuite("{\"format\": \"nanoleak-golden-v1\", "
                          "\"suite\": \"s\", \"scenarios\": "
                          "[{\"name\": \"x\", \"metrics\": "
                          "[{\"name\": \"m\", \"value\": 1e999}]}]}"),
               ParseError);
  EXPECT_THROW(parseSuite("{\"format\": \"nanoleak-golden-v1\", "
                          "\"suite\": \"\\u00zz\", \"scenarios\": []}"),
               ParseError);
  try {
    parseSuite("{\n  \"format\": \"nanoleak-golden-v1\",\n  \"suite\": @\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(GoldenFileTest, SchemaViolationsThrow) {
  // Wrong format tag.
  EXPECT_THROW(
      parseSuite("{\"format\": \"v0\", \"suite\": \"x\", \"scenarios\": []}"),
      Error);
  // Missing fields.
  EXPECT_THROW(parseSuite("{\"format\": \"nanoleak-golden-v1\"}"), Error);
  // Wrong types.
  EXPECT_THROW(parseSuite("{\"format\": \"nanoleak-golden-v1\", "
                          "\"suite\": 3, \"scenarios\": []}"),
               Error);
}

TEST(GoldenFileTest, FileRoundTripAndMissingFileThrows) {
  const std::string path = testing::TempDir() + "golden_file_test.json";
  const SuiteResult original = sampleSuite();
  saveSuiteFile(path, original);
  const SuiteResult loaded = loadSuiteFile(path);
  EXPECT_EQ(serializeSuite(loaded), serializeSuite(original));
  EXPECT_THROW(loadSuiteFile("/nonexistent/dir/golden.json"), Error);
  EXPECT_THROW(saveSuiteFile("/nonexistent/dir/golden.json", original),
               Error);
}

TEST(GoldenFileTest, SavingOverAGoldenReplacesItAtomically) {
  // saveSuiteFile writes a temp sibling and renames it over the target,
  // so a killed `nanoleak record` cannot leave a truncated golden behind.
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "golden_file_atomic";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "suite.json").string();
  {
    // The previous golden is longer than the new one: a write in place
    // without truncation would leave its tail behind.
    std::ofstream stale(path, std::ios::binary);
    stale << std::string(4096, 'x');
  }
  const SuiteResult original = sampleSuite();
  saveSuiteFile(path, original);

  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), serializeSuite(original));
  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"suite.json"});
}

TEST(GoldenFileTest, MutatedGoldenJsonParsesOrThrowsError) {
  // Seeded mutation fuzz (tests/mutation_fuzz.h) of a canonical golden
  // document, an empty suite and a metric-less scenario.
  SuiteResult empty;
  empty.suite = "empty";
  SuiteResult bare = sampleSuite();
  bare.scenarios[0].metrics.clear();
  fuzz::expectParsesOrThrowsError(
      {serializeSuite(sampleSuite()), serializeSuite(empty),
       serializeSuite(bare)},
      "{}[]:,\"\\ \n-+.eE0123456789uaemnrv", 20050309, 2000,
      [](const std::string& text) { (void)parseSuite(text); });
}

}  // namespace
}  // namespace nanoleak::scenario
