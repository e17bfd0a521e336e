#include "scenario/serve_protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../mutation_fuzz.h"
#include "util/error.h"

namespace nanoleak::scenario {
namespace {

std::string wrap(const std::string& fields) {
  return std::string("{\"format\":\"") + kServeFormat + "\"" +
         (fields.empty() ? "" : "," + fields) + "}";
}

/// The message of the nanoleak::Error that decoding `json` throws, or ""
/// when it decodes.
std::string decodeError(const std::string& json) {
  try {
    (void)decodeRequest(json);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ServeProtocolTest, OpAndStatusNamesRoundTrip) {
  for (ServeOp op :
       {ServeOp::kPing, ServeOp::kRun, ServeOp::kEstimate,
        ServeOp::kMonteCarlo, ServeOp::kThermal, ServeOp::kStats,
        ServeOp::kShutdown}) {
    EXPECT_EQ(serveOpFromString(toString(op)), op);
  }
  for (ServeStatus status :
       {ServeStatus::kOk, ServeStatus::kError, ServeStatus::kBusy,
        ServeStatus::kOverloaded, ServeStatus::kDeadlineExceeded,
        ServeStatus::kShuttingDown}) {
    EXPECT_EQ(serveStatusFromString(toString(status)), status);
  }
  EXPECT_THROW(serveOpFromString("reboot"), Error);
  EXPECT_THROW(serveStatusFromString("maybe"), Error);
}

TEST(ServeProtocolTest, RequestEncodingIsAFixedPoint) {
  // decode(encode(decode(x))) must reproduce encode(decode(x)) byte for
  // byte - the property the determinism contract leans on.
  const std::string raw = wrap(
      "\"op\":\"estimate\",\"circuit\":\"c17\",\"vectors\":8,\"seed\":3");
  const ServeRequest decoded = decodeRequest(raw);
  const std::string canonical = encodeRequest(decoded);
  EXPECT_EQ(encodeRequest(decodeRequest(canonical)), canonical);
}

TEST(ServeProtocolTest, EstimateDefaultsAndNameAreDeterministic) {
  const ServeRequest request =
      decodeRequest(wrap("\"op\":\"estimate\",\"circuit\":\"c17\""));
  EXPECT_EQ(request.op, ServeOp::kEstimate);
  const Scenario& sc = request.scenario;
  EXPECT_EQ(sc.method, Method::kPlanEstimate);
  EXPECT_EQ(sc.circuit, "c17");
  EXPECT_EQ(sc.flavour, "d25s");
  EXPECT_EQ(sc.temperature_k, 300.0);
  EXPECT_TRUE(sc.with_loading);
  EXPECT_EQ(sc.vectors.count, 16u);
  EXPECT_EQ(sc.vectors.seed, 1u);
  // The synthesized name is a pure function of the resolved fields.
  const ServeRequest again =
      decodeRequest(wrap("\"op\":\"estimate\",\"circuit\":\"c17\""));
  EXPECT_EQ(sc.name, again.scenario.name);
  EXPECT_NE(sc.name, "");
}

TEST(ServeProtocolTest, MonteCarloAndThermalDecode) {
  const ServeRequest mc = decodeRequest(
      wrap("\"op\":\"mc\",\"samples\":32,\"seed\":9,\"flavour\":\"d25s\""));
  EXPECT_EQ(mc.op, ServeOp::kMonteCarlo);
  EXPECT_EQ(mc.scenario.method, Method::kMonteCarlo);
  EXPECT_EQ(mc.scenario.mc_samples, 32u);
  EXPECT_EQ(mc.scenario.mc_seed, 9u);

  const ServeRequest thermal = decodeRequest(wrap(
      "\"op\":\"thermal\",\"circuit\":\"inv_chain8\",\"tmin\":250,"
      "\"tmax\":350,\"points\":4"));
  EXPECT_EQ(thermal.op, ServeOp::kThermal);
  EXPECT_EQ(thermal.scenario.method, Method::kThermalSweep);
  EXPECT_EQ(thermal.scenario.thermal.t_min_k, 250.0);
  EXPECT_EQ(thermal.scenario.thermal.t_max_k, 350.0);
  EXPECT_EQ(thermal.scenario.thermal.points, 4u);
}

TEST(ServeProtocolTest, RejectsMalformedRequests) {
  // Not JSON at all.
  EXPECT_THROW(decodeRequest("not json"), Error);
  // Missing / wrong format tag.
  EXPECT_THROW(decodeRequest("{\"op\":\"ping\"}"), Error);
  EXPECT_THROW(
      decodeRequest("{\"format\":\"nanoleak-serve-v0\",\"op\":\"ping\"}"),
      Error);
  // Missing or unknown op.
  EXPECT_THROW(decodeRequest(wrap("")), Error);
  EXPECT_THROW(decodeRequest(wrap("\"op\":\"reboot\"")), Error);
  // Unknown fields are rejected, not ignored: a typo like "vektors"
  // would otherwise silently run a different workload.
  EXPECT_THROW(decodeRequest(wrap(
                   "\"op\":\"estimate\",\"circuit\":\"c17\",\"vektors\":8")),
               Error);
  EXPECT_THROW(decodeRequest(wrap("\"op\":\"ping\",\"target\":\"x\"")),
               Error);
  // Range violations.
  EXPECT_THROW(decodeRequest(wrap("\"op\":\"run\"")), Error);  // no target
  EXPECT_THROW(decodeRequest(wrap("\"op\":\"estimate\"")), Error);
  EXPECT_THROW(
      decodeRequest(wrap("\"op\":\"estimate\",\"circuit\":\"c17\","
                         "\"temperature_k\":0")),
      Error);
  EXPECT_THROW(decodeRequest(wrap(
                   "\"op\":\"estimate\",\"circuit\":\"c17\",\"vectors\":0")),
               Error);
  EXPECT_THROW(
      decodeRequest(wrap("\"op\":\"estimate\",\"circuit\":\"c17\","
                         "\"seed\":-1")),
      Error);
  EXPECT_THROW(
      decodeRequest(wrap("\"op\":\"estimate\",\"circuit\":\"c17\","
                         "\"vectors\":2.5")),
      Error);
  EXPECT_THROW(
      decodeRequest(wrap("\"op\":\"estimate\",\"circuit\":\"c17\","
                         "\"policy\":\"sequential\"")),
      Error);
  EXPECT_THROW(decodeRequest(wrap("\"op\":\"mc\",\"samples\":0")), Error);
  EXPECT_THROW(decodeRequest(wrap(
                   "\"op\":\"thermal\",\"circuit\":\"c17\",\"points\":1")),
               Error);
  EXPECT_THROW(
      decodeRequest(wrap("\"op\":\"thermal\",\"circuit\":\"c17\","
                         "\"tmin\":300,\"tmax\":300")),
      Error);
}

// One check of every validation family, pinned to its exact text: the
// messages are concatenated only when the check fails, and must read the
// same as when they were built on every call.
TEST(ServeProtocolTest, RejectionMessagesNameTheOffendingField) {
  EXPECT_EQ(decodeError("[1]"),
            "serve request: document is not a JSON object");
  EXPECT_EQ(decodeError("{\"op\":\"ping\"}"),
            "serve request: missing 'format' tag");
  EXPECT_EQ(decodeError("{\"format\":\"v0\",\"op\":\"ping\"}"),
            std::string("serve request: format is 'v0', want '") +
                kServeFormat + "'");
  EXPECT_EQ(decodeError(wrap("\"op\":\"run\"")),
            "serve run request: requires a non-empty string 'target'");
  EXPECT_EQ(decodeError(wrap("\"op\":\"ping\",\"id\":7")),
            "serve request: 'id' must be a string");
  EXPECT_EQ(decodeError(wrap("\"op\":\"estimate\",\"circuit\":\"c17\","
                             "\"temperature_k\":\"hot\"")),
            "serve request: 'temperature_k' must be a number");
  EXPECT_EQ(decodeError(wrap("\"op\":\"estimate\",\"circuit\":\"c17\","
                             "\"loading\":1")),
            "serve request: 'loading' must be a boolean");
  EXPECT_EQ(decodeError(wrap("\"op\":\"mc\",\"samples\":1.5")),
            "serve request: 'samples' must be a non-negative integer");
  EXPECT_EQ(decodeError(wrap("\"op\":\"ping\",\"vektors\":3")),
            "serve request: unknown field 'vektors'");
}

TEST(ServeProtocolTest, ResponseRoundTripsArbitraryPayloadBytes) {
  ServeResponse response;
  response.id = "req-7";
  response.status = ServeStatus::kOk;
  response.payload = "{\"line\":1}\n\"quotes\" and \\backslashes\\\n\ttabs";
  response.message = "";
  const ServeResponse decoded = decodeResponse(encodeResponse(response));
  EXPECT_EQ(decoded.id, response.id);
  EXPECT_EQ(decoded.status, response.status);
  EXPECT_EQ(decoded.payload, response.payload);
  EXPECT_EQ(decoded.message, response.message);

  ServeResponse error;
  error.status = ServeStatus::kBusy;
  error.message = "admission queue full";
  const ServeResponse decoded_error = decodeResponse(encodeResponse(error));
  EXPECT_EQ(decoded_error.status, ServeStatus::kBusy);
  EXPECT_EQ(decoded_error.message, "admission queue full");
}

TEST(ServeProtocolTest, DeadlineAndTenantRoundTripOnEstimationOps) {
  const ServeRequest decoded = decodeRequest(
      wrap("\"op\":\"estimate\",\"circuit\":\"c17\",\"deadline_ms\":250,"
           "\"tenant\":\"team-a\""));
  EXPECT_EQ(decoded.deadline_ms, 250u);
  EXPECT_EQ(decoded.tenant, "team-a");
  const std::string canonical = encodeRequest(decoded);
  const ServeRequest again = decodeRequest(canonical);
  EXPECT_EQ(again.deadline_ms, 250u);
  EXPECT_EQ(again.tenant, "team-a");
  EXPECT_EQ(encodeRequest(again), canonical);
}

TEST(ServeProtocolTest, UnsetDeadlineAndTenantLeaveRequestBytesUnchanged) {
  // The resilience fields are emitted only when set, so requests from
  // older clients keep their exact historical bytes (and cache keys).
  ServeRequest request;
  request.op = ServeOp::kRun;
  request.target = "golden/small";
  const std::string encoded = encodeRequest(request);
  EXPECT_EQ(encoded.find("deadline_ms"), std::string::npos);
  EXPECT_EQ(encoded.find("tenant"), std::string::npos);
  const ServeRequest decoded = decodeRequest(encoded);
  EXPECT_EQ(decoded.deadline_ms, 0u);
  EXPECT_EQ(decoded.tenant, "");
}

TEST(ServeProtocolTest, DeadlineAndTenantAreRejectedOnDiagnosticOps) {
  // ping/stats/shutdown run inline on the reader thread - a deadline or
  // tenant there would silently do nothing, so the codec rejects them.
  EXPECT_THROW(decodeRequest(wrap("\"op\":\"ping\",\"deadline_ms\":10")),
               Error);
  EXPECT_THROW(decodeRequest(wrap("\"op\":\"stats\",\"tenant\":\"t\"")),
               Error);
}

TEST(ServeProtocolTest, RetryAfterRoundTripsAndIsElidedWhenZero) {
  ServeResponse busy;
  busy.status = ServeStatus::kBusy;
  busy.message = "admission queue full";
  busy.retry_after_ms = 300;
  const ServeResponse decoded = decodeResponse(encodeResponse(busy));
  EXPECT_EQ(decoded.status, ServeStatus::kBusy);
  EXPECT_EQ(decoded.retry_after_ms, 300u);

  ServeResponse ok;
  ok.status = ServeStatus::kOk;
  ok.payload = "{}";
  const std::string encoded = encodeResponse(ok);
  EXPECT_EQ(encoded.find("retry_after_ms"), std::string::npos);
  EXPECT_EQ(decodeResponse(encoded).retry_after_ms, 0u);
}

TEST(ServeProtocolTest, RequestIdIsEchoedThroughEncoding) {
  ServeRequest request;
  request.id = "client-42/req-3";
  request.op = ServeOp::kPing;
  const ServeRequest decoded = decodeRequest(encodeRequest(request));
  EXPECT_EQ(decoded.id, "client-42/req-3");
}

/// JSON syntax plus the digits and letters the frame schema spells with.
constexpr const char* kJsonAlphabet =
    "{}[]:,\"\\ \n\t-+.eE0123456789truefalsnopcimdxy_";

TEST(ServeProtocolTest, MutatedRequestsDecodeOrThrowError) {
  // Seeded mutation fuzz (tests/mutation_fuzz.h) of one valid request per
  // op, plus the optional deadline/tenant/id fields.
  const std::vector<std::string> inputs = {
      wrap("\"op\":\"ping\",\"id\":\"client-1/req-2\""),
      wrap("\"op\":\"run\",\"target\":\"smoke\""),
      wrap("\"op\":\"estimate\",\"circuit\":\"c17\",\"vectors\":8,"
           "\"seed\":3,\"loading\":false,\"deadline_ms\":250,"
           "\"tenant\":\"team-a\""),
      wrap("\"op\":\"mc\",\"samples\":32,\"seed\":9,\"flavour\":\"d25s\""),
      wrap("\"op\":\"thermal\",\"circuit\":\"inv_chain8\",\"tmin\":250,"
           "\"tmax\":350,\"points\":4"),
      wrap("\"op\":\"stats\""),
      wrap("\"op\":\"shutdown\"")};
  for (const std::string& input : inputs) {
    ASSERT_EQ(decodeError(input), "") << input;
  }
  fuzz::expectParsesOrThrowsError(
      inputs, kJsonAlphabet, 20050307, 2000,
      [](const std::string& text) { (void)decodeRequest(text); });
}

TEST(ServeProtocolTest, MutatedResponsesDecodeOrThrowError) {
  ServeResponse ok;
  ok.id = "req-7";
  ok.payload = "{\"line\":1}\n\"quotes\" and \\backslashes\\";
  ServeResponse busy;
  busy.status = ServeStatus::kBusy;
  busy.message = "admission queue full";
  busy.retry_after_ms = 300;
  fuzz::expectParsesOrThrowsError(
      {encodeResponse(ok), encodeResponse(busy)}, kJsonAlphabet, 20050308,
      2000, [](const std::string& text) { (void)decodeResponse(text); });
}

}  // namespace
}  // namespace nanoleak::scenario
