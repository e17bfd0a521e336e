// Versioned golden files: canonical JSON serialization of suite results.
//
// Canonical means byte-reproducible: fixed key order, fixed 2-space
// layout, doubles printed with "%.17g" (shortest text that round-trips a
// double exactly), scenarios and metrics in run order. Two SuiteResults
// with bit-identical values serialize to bit-identical bytes - the
// property the determinism tests diff across thread counts.
#pragma once

#include <string>

#include "scenario/runner.h"

namespace nanoleak::scenario {

/// Format tag written into (and required from) every golden file; bump
/// when the schema changes.
inline constexpr const char* kGoldenFormat = "nanoleak-golden-v1";

/// "%.17g" rendering; the inverse of strtod for every finite double.
std::string formatCanonical(double value);

/// Canonical JSON of a suite result (trailing newline included). Throws
/// nanoleak::Error if any metric is non-finite (a non-finite golden value
/// is always a bug upstream).
std::string serializeSuite(const SuiteResult& result);

/// Parses serializeSuite() output (any JSON layout of the same schema is
/// accepted; only emission is canonical). Throws nanoleak::ParseError on
/// malformed JSON and nanoleak::Error on schema violations.
SuiteResult parseSuite(const std::string& json);

/// Writes `content` to `path` atomically: the bytes land in a temp file
/// in the same directory first (`path` + ".tmp." + pid) and are renamed
/// over the target only after a successful flush and close. Readers
/// therefore see either the previous complete file or the new complete
/// file - never a truncated one from a process that died mid-write - and
/// two processes writing the same target cannot clobber each other's
/// half-written bytes (last rename wins). Every artifact the CLI writes
/// (golden files, metrics, traces) goes through here. Throws
/// nanoleak::Error, prefixed with `what`, when the path is not writable.
void writeTextFile(const std::string& path, const std::string& content,
                   const char* what);

/// File convenience wrappers. saveSuiteFile writes through writeTextFile
/// and throws nanoleak::Error when the path is not writable; loadSuiteFile
/// when it is not readable.
void saveSuiteFile(const std::string& path, const SuiteResult& result);
SuiteResult loadSuiteFile(const std::string& path);

}  // namespace nanoleak::scenario
