#include "scenario/serve_protocol.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/golden_file.h"
#include "util/error.h"
#include "util/json.h"

namespace nanoleak::scenario {

namespace {

using util::JsonValue;

const JsonValue& requireObject(const JsonValue& doc, const char* what) {
  if (doc.type != JsonValue::Type::kObject) {
    throwError(std::string(what) + ": document is not a JSON object");
  }
  return doc;
}

std::string getString(const JsonValue& obj, const std::string& key,
                      const std::string& fallback) {
  const JsonValue* value = obj.find(key);
  if (value == nullptr) {
    return fallback;
  }
  if (value->type != JsonValue::Type::kString) {
    throwError("serve request: '" + key + "' must be a string");
  }
  return value->string;
}

std::string requireString(const JsonValue& obj, const std::string& key,
                          const char* what) {
  const JsonValue* value = obj.find(key);
  if (!(value != nullptr && value->type == JsonValue::Type::kString &&
        !value->string.empty())) {
    throwError(std::string(what) + ": requires a non-empty string '" + key +
               "'");
  }
  return value->string;
}

double getNumber(const JsonValue& obj, const std::string& key,
                 double fallback) {
  const JsonValue* value = obj.find(key);
  if (value == nullptr) {
    return fallback;
  }
  if (value->type != JsonValue::Type::kNumber) {
    throwError("serve request: '" + key + "' must be a number");
  }
  return value->number;
}

bool getBool(const JsonValue& obj, const std::string& key, bool fallback) {
  const JsonValue* value = obj.find(key);
  if (value == nullptr) {
    return fallback;
  }
  if (value->type != JsonValue::Type::kBool) {
    throwError("serve request: '" + key + "' must be a boolean");
  }
  return value->boolean;
}

/// A non-negative integer-valued count/seed field (JSON numbers arrive
/// as doubles; fractional or negative values are schema violations).
std::uint64_t getCount(const JsonValue& obj, const std::string& key,
                       std::uint64_t fallback) {
  const double value =
      getNumber(obj, key, static_cast<double>(fallback));
  if (!(value >= 0.0 && value == std::floor(value) && value <= 1e15)) {
    throwError("serve request: '" + key + "' must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(value);
}

/// Rejects keys outside `allowed`: a daemon silently ignoring a typoed
/// field ("vektors") would compute something other than what the client
/// asked for and still answer ok.
void requireOnlyKeys(const JsonValue& obj,
                     const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : obj.object) {
    bool ok = false;
    for (const std::string& candidate : allowed) {
      ok = ok || candidate == key;
    }
    if (!ok) {
      throwError("serve request: unknown field '" + key + "'");
    }
  }
}

void requireFormat(const JsonValue& obj, const char* what) {
  const JsonValue* format = obj.find("format");
  if (!(format != nullptr && format->type == JsonValue::Type::kString)) {
    throwError(std::string(what) + ": missing 'format' tag");
  }
  if (format->string != kServeFormat) {
    throwError(std::string(what) + ": format is '" + format->string +
               "', want '" + kServeFormat + "'");
  }
}

std::string loadingSuffix(bool with_loading) {
  return with_loading ? "/load" : "/noload";
}

/// Synthesized deterministic scenario name of an inline estimate
/// request: a pure function of its resolved fields, so identical
/// requests yield identical suite serializations byte for byte.
std::string estimateName(const Scenario& sc) {
  const char* policy =
      sc.vectors.kind == VectorPolicy::Kind::kWalk ? "walk" : "random";
  return "serve/estimate/" + sc.circuit + "/" + sc.flavour + "/T" +
         formatCanonical(sc.temperature_k) + "/" + policy +
         std::to_string(sc.vectors.count) + "s" +
         std::to_string(sc.vectors.seed) + loadingSuffix(sc.with_loading);
}

std::string mcName(const Scenario& sc) {
  return "serve/mc/" + sc.flavour + "/T" +
         formatCanonical(sc.temperature_k) + "/n" +
         std::to_string(sc.mc_samples) + "s" + std::to_string(sc.mc_seed);
}

std::string thermalName(const Scenario& sc) {
  return "serve/thermal/" + sc.circuit + "/" + sc.flavour + "/T" +
         formatCanonical(sc.thermal.t_min_k) + "-" +
         formatCanonical(sc.thermal.t_max_k) + "x" +
         std::to_string(sc.thermal.points) + "/v" +
         std::to_string(sc.vectors.count) + "s" +
         std::to_string(sc.vectors.seed) + loadingSuffix(sc.with_loading);
}

VectorPolicy decodePolicy(const JsonValue& obj, std::size_t default_count) {
  const std::string policy = getString(obj, "policy", "random");
  const auto count = static_cast<std::size_t>(
      getCount(obj, "vectors", default_count));
  require(count >= 1, "serve request: 'vectors' must be >= 1");
  const std::uint64_t seed = getCount(obj, "seed", 1);
  if (policy == "random") {
    return VectorPolicy::random(count, seed);
  }
  if (policy == "walk") {
    return VectorPolicy::walk(count, seed);
  }
  throw Error("serve request: unknown policy '" + policy +
              "' (want random|walk)");
}

}  // namespace

const char* toString(ServeOp op) {
  switch (op) {
    case ServeOp::kPing:
      return "ping";
    case ServeOp::kRun:
      return "run";
    case ServeOp::kEstimate:
      return "estimate";
    case ServeOp::kMonteCarlo:
      return "mc";
    case ServeOp::kThermal:
      return "thermal";
    case ServeOp::kStats:
      return "stats";
    case ServeOp::kShutdown:
      return "shutdown";
  }
  return "?";
}

ServeOp serveOpFromString(const std::string& name) {
  if (name == "ping") return ServeOp::kPing;
  if (name == "run") return ServeOp::kRun;
  if (name == "estimate") return ServeOp::kEstimate;
  if (name == "mc") return ServeOp::kMonteCarlo;
  if (name == "thermal") return ServeOp::kThermal;
  if (name == "stats") return ServeOp::kStats;
  if (name == "shutdown") return ServeOp::kShutdown;
  throw Error("serve: unknown op '" + name +
              "' (want ping|run|estimate|mc|thermal|stats|shutdown)");
}

const char* toString(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kError:
      return "error";
    case ServeStatus::kBusy:
      return "busy";
    case ServeStatus::kOverloaded:
      return "overloaded";
    case ServeStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ServeStatus::kShuttingDown:
      return "shutting_down";
  }
  return "?";
}

ServeStatus serveStatusFromString(const std::string& name) {
  if (name == "ok") return ServeStatus::kOk;
  if (name == "error") return ServeStatus::kError;
  if (name == "busy") return ServeStatus::kBusy;
  if (name == "overloaded") return ServeStatus::kOverloaded;
  if (name == "deadline_exceeded") return ServeStatus::kDeadlineExceeded;
  if (name == "shutting_down") return ServeStatus::kShuttingDown;
  throw Error("serve: unknown status '" + name + "'");
}

std::string encodeRequest(const ServeRequest& request) {
  const Scenario& sc = request.scenario;
  std::string out = "{\"format\":\"";
  out += kServeFormat;
  out += "\",\"id\":\"" + util::escapeJson(request.id) + "\"";
  out += ",\"op\":\"" + std::string(toString(request.op)) + "\"";
  switch (request.op) {
    case ServeOp::kRun:
      out += ",\"target\":\"" + util::escapeJson(request.target) + "\"";
      break;
    case ServeOp::kEstimate:
      out += ",\"circuit\":\"" + util::escapeJson(sc.circuit) + "\"";
      out += ",\"flavour\":\"" + util::escapeJson(sc.flavour) + "\"";
      out += ",\"temperature_k\":" + formatCanonical(sc.temperature_k);
      out += ",\"policy\":\"";
      out += sc.vectors.kind == VectorPolicy::Kind::kWalk ? "walk" : "random";
      out += "\",\"vectors\":" + std::to_string(sc.vectors.count);
      out += ",\"seed\":" + std::to_string(sc.vectors.seed);
      out += ",\"loading\":";
      out += sc.with_loading ? "true" : "false";
      break;
    case ServeOp::kMonteCarlo:
      out += ",\"flavour\":\"" + util::escapeJson(sc.flavour) + "\"";
      out += ",\"temperature_k\":" + formatCanonical(sc.temperature_k);
      out += ",\"samples\":" + std::to_string(sc.mc_samples);
      out += ",\"seed\":" + std::to_string(sc.mc_seed);
      break;
    case ServeOp::kThermal:
      out += ",\"circuit\":\"" + util::escapeJson(sc.circuit) + "\"";
      out += ",\"flavour\":\"" + util::escapeJson(sc.flavour) + "\"";
      out += ",\"tmin\":" + formatCanonical(sc.thermal.t_min_k);
      out += ",\"tmax\":" + formatCanonical(sc.thermal.t_max_k);
      out += ",\"points\":" + std::to_string(sc.thermal.points);
      out += ",\"vectors\":" + std::to_string(sc.vectors.count);
      out += ",\"seed\":" + std::to_string(sc.vectors.seed);
      out += ",\"loading\":";
      out += sc.with_loading ? "true" : "false";
      break;
    case ServeOp::kPing:
    case ServeOp::kStats:
    case ServeOp::kShutdown:
      break;
  }
  if (request.op == ServeOp::kRun || request.op == ServeOp::kEstimate ||
      request.op == ServeOp::kMonteCarlo || request.op == ServeOp::kThermal) {
    // Resilience fields are emitted only when set, so requests without
    // them stay byte-identical to the original nanoleak-serve-v1 bytes.
    if (request.deadline_ms > 0) {
      out += ",\"deadline_ms\":" + std::to_string(request.deadline_ms);
    }
    if (!request.tenant.empty()) {
      out += ",\"tenant\":\"" + util::escapeJson(request.tenant) + "\"";
    }
  }
  out += "}";
  return out;
}

ServeRequest decodeRequest(const std::string& json) {
  const JsonValue doc = util::parseJson(json, "serve request");
  const JsonValue& obj = requireObject(doc, "serve request");
  requireFormat(obj, "serve request");

  ServeRequest request;
  request.id = getString(obj, "id", "");
  request.op = serveOpFromString(requireString(obj, "op", "serve request"));

  Scenario& sc = request.scenario;
  switch (request.op) {
    case ServeOp::kRun:
      requireOnlyKeys(obj, {"format", "id", "op", "target", "deadline_ms",
                            "tenant"});
      request.target = requireString(obj, "target", "serve run request");
      break;
    case ServeOp::kEstimate: {
      requireOnlyKeys(obj, {"format", "id", "op", "circuit", "flavour",
                            "temperature_k", "policy", "vectors", "seed",
                            "loading", "deadline_ms", "tenant"});
      sc.method = Method::kPlanEstimate;
      sc.circuit = requireString(obj, "circuit", "serve estimate request");
      sc.flavour = getString(obj, "flavour", "d25s");
      sc.temperature_k = getNumber(obj, "temperature_k", 300.0);
      require(sc.temperature_k > 0.0,
              "serve request: 'temperature_k' must be positive");
      sc.with_loading = getBool(obj, "loading", true);
      sc.vectors = decodePolicy(obj, 16);
      sc.name = estimateName(sc);
      break;
    }
    case ServeOp::kMonteCarlo: {
      requireOnlyKeys(obj, {"format", "id", "op", "flavour", "temperature_k",
                            "samples", "seed", "deadline_ms", "tenant"});
      sc.method = Method::kMonteCarlo;
      sc.flavour = getString(obj, "flavour", "d25s");
      sc.temperature_k = getNumber(obj, "temperature_k", 300.0);
      require(sc.temperature_k > 0.0,
              "serve request: 'temperature_k' must be positive");
      sc.mc_samples =
          static_cast<std::size_t>(getCount(obj, "samples", 64));
      require(sc.mc_samples >= 1,
              "serve request: 'samples' must be >= 1");
      sc.mc_seed = getCount(obj, "seed", 20050307);
      sc.name = mcName(sc);
      break;
    }
    case ServeOp::kThermal: {
      requireOnlyKeys(obj, {"format", "id", "op", "circuit", "flavour",
                            "tmin", "tmax", "points", "vectors", "seed",
                            "loading", "deadline_ms", "tenant"});
      sc.method = Method::kThermalSweep;
      sc.circuit = requireString(obj, "circuit", "serve thermal request");
      sc.flavour = getString(obj, "flavour", "d25s");
      sc.thermal.t_min_k = getNumber(obj, "tmin", 233.0);
      sc.thermal.t_max_k = getNumber(obj, "tmax", 398.0);
      require(sc.thermal.t_min_k > 0.0,
              "serve request: 'tmin' must be positive");
      require(sc.thermal.t_max_k > sc.thermal.t_min_k,
              "serve request: 'tmax' must exceed 'tmin'");
      sc.thermal.points =
          static_cast<std::size_t>(getCount(obj, "points", 8));
      require(sc.thermal.points >= 2,
              "serve request: 'points' must be >= 2");
      sc.with_loading = getBool(obj, "loading", true);
      const auto count =
          static_cast<std::size_t>(getCount(obj, "vectors", 12));
      require(count >= 1, "serve request: 'vectors' must be >= 1");
      sc.vectors = VectorPolicy::random(count, getCount(obj, "seed", 1));
      sc.name = thermalName(sc);
      break;
    }
    case ServeOp::kPing:
    case ServeOp::kStats:
    case ServeOp::kShutdown:
      requireOnlyKeys(obj, {"format", "id", "op"});
      break;
  }
  if (request.op == ServeOp::kRun || request.op == ServeOp::kEstimate ||
      request.op == ServeOp::kMonteCarlo || request.op == ServeOp::kThermal) {
    request.deadline_ms = getCount(obj, "deadline_ms", 0);
    request.tenant = getString(obj, "tenant", "");
  }
  return request;
}

std::string encodeResponse(const ServeResponse& response) {
  std::string out = "{\"format\":\"";
  out += kServeFormat;
  out += "\",\"id\":\"" + util::escapeJson(response.id) + "\"";
  out += ",\"status\":\"" + std::string(toString(response.status)) + "\"";
  out += ",\"message\":\"" + util::escapeJson(response.message) + "\"";
  if (response.retry_after_ms > 0) {
    // Emitted only on rejections carrying a hint: ok responses keep the
    // exact pre-resilience byte layout.
    out += ",\"retry_after_ms\":" + std::to_string(response.retry_after_ms);
  }
  out += ",\"payload\":\"" + util::escapeJson(response.payload) + "\"";
  out += "}";
  return out;
}

ServeResponse decodeResponse(const std::string& json) {
  const JsonValue doc = util::parseJson(json, "serve response");
  const JsonValue& obj = requireObject(doc, "serve response");
  requireFormat(obj, "serve response");
  ServeResponse response;
  response.id = getString(obj, "id", "");
  response.status = serveStatusFromString(
      requireString(obj, "status", "serve response"));
  response.message = getString(obj, "message", "");
  response.payload = getString(obj, "payload", "");
  response.retry_after_ms = getCount(obj, "retry_after_ms", 0);
  return response;
}

}  // namespace nanoleak::scenario
