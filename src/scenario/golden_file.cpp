#include "scenario/golden_file.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/json.h"

namespace nanoleak::scenario {

namespace {

using util::JsonValue;
using util::escapeJson;

const JsonValue& requireField(const JsonValue& object, const std::string& key,
                              JsonValue::Type type, const char* what) {
  require(object.type == JsonValue::Type::kObject,
          std::string("golden JSON: ") + what + " must be an object");
  const JsonValue* field = object.find(key);
  require(field != nullptr, std::string("golden JSON: ") + what +
                                " is missing field '" + key + "'");
  require(field->type == type, std::string("golden JSON: ") + what +
                                   " field '" + key +
                                   "' has the wrong type");
  return *field;
}

}  // namespace

std::string formatCanonical(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string serializeSuite(const SuiteResult& result) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"format\": \"" << kGoldenFormat << "\",\n";
  out << "  \"suite\": \"" << escapeJson(result.suite) << "\",\n";
  out << "  \"scenarios\": [";
  for (std::size_t i = 0; i < result.scenarios.size(); ++i) {
    const ScenarioResult& scenario = result.scenarios[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\n";
    out << "      \"name\": \"" << escapeJson(scenario.name) << "\",\n";
    out << "      \"metrics\": [";
    for (std::size_t m = 0; m < scenario.metrics.size(); ++m) {
      const Metric& metric = scenario.metrics[m];
      require(std::isfinite(metric.value),
              "serializeSuite: non-finite metric '" + metric.name +
                  "' in scenario '" + scenario.name + "'");
      out << (m == 0 ? "\n" : ",\n");
      out << "        {\"name\": \"" << escapeJson(metric.name)
          << "\", \"value\": " << formatCanonical(metric.value) << "}";
    }
    out << (scenario.metrics.empty() ? "]\n" : "\n      ]\n");
    out << "    }";
  }
  out << (result.scenarios.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

SuiteResult parseSuite(const std::string& json) {
  const JsonValue root = util::parseJson(json, "golden JSON");
  const JsonValue& format =
      requireField(root, "format", JsonValue::Type::kString, "document");
  require(format.string == kGoldenFormat,
          "golden JSON: unsupported format '" + format.string + "' (want '" +
              kGoldenFormat + "')");
  SuiteResult result;
  result.suite =
      requireField(root, "suite", JsonValue::Type::kString, "document")
          .string;
  const JsonValue& scenarios =
      requireField(root, "scenarios", JsonValue::Type::kArray, "document");
  for (const JsonValue& entry : scenarios.array) {
    ScenarioResult scenario;
    scenario.name =
        requireField(entry, "name", JsonValue::Type::kString, "scenario")
            .string;
    const JsonValue& metrics =
        requireField(entry, "metrics", JsonValue::Type::kArray, "scenario");
    for (const JsonValue& metric_entry : metrics.array) {
      Metric metric;
      metric.name = requireField(metric_entry, "name",
                                 JsonValue::Type::kString, "metric")
                        .string;
      metric.value = requireField(metric_entry, "value",
                                  JsonValue::Type::kNumber, "metric")
                         .number;
      scenario.metrics.push_back(std::move(metric));
    }
    result.scenarios.push_back(std::move(scenario));
  }
  return result;
}

void writeTextFile(const std::string& path, const std::string& content,
                   const char* what) {
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    require(out.good(), std::string(what) + ": cannot open '" + tmp_path +
                            "' for writing");
    out << content;
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp_path.c_str());
      throw Error(std::string(what) + ": write to '" + tmp_path + "' failed");
    }
    out.close();
    if (out.fail()) {
      std::remove(tmp_path.c_str());
      throw Error(std::string(what) + ": close of '" + tmp_path + "' failed");
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    throw Error(std::string(what) + ": cannot rename '" + tmp_path +
                "' to '" + path + "'");
  }
}

void saveSuiteFile(const std::string& path, const SuiteResult& result) {
  writeTextFile(path, serializeSuite(result), "saveSuiteFile");
}

SuiteResult loadSuiteFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "loadSuiteFile: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseSuite(buffer.str());
}

}  // namespace nanoleak::scenario
