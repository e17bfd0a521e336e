// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <system_error>

namespace nanoleak::bench {

/// Where bench artifacts (the BENCH_*.json files) are written: bench/out/
/// relative to the working directory (the repo root in CI), which is
/// gitignored. Creates the directory on first use and falls back to the
/// bare filename when it cannot be created (e.g. a read-only cwd), so
/// benches still emit their artifact somewhere rather than failing.
inline std::string outPath(const std::string& filename) {
  const std::filesystem::path dir = std::filesystem::path("bench") / "out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "warning: could not create " << dir.string() << " ("
              << ec.message() << "); writing " << filename
              << " to the working directory\n";
    return filename;
  }
  return (dir / filename).string();
}

/// Strict integer parse: the whole argument must be a number in
/// [min, max] ("100x" is rejected, not silently read as 100; overflowing
/// values are rejected, not saturated or wrapped). Returns fallback with
/// a stderr warning on malformed or out-of-range input.
inline long parseIntArg(const char* arg, long min, long max, long fallback,
                        const char* what) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || errno == ERANGE || parsed < min ||
      parsed > max) {
    std::cerr << "warning: ignoring malformed " << what << " argument '"
              << arg << "' (want an integer in [" << min << ", " << max
              << "]); using " << fallback << "\n";
    return fallback;
  }
  return parsed;
}

/// Scale factor for sample counts: pass a positive integer argv[1] to
/// override the paper-scale default (useful for quick smoke runs).
inline std::size_t sampleCount(int argc, char** argv, std::size_t fallback) {
  if (argc > 1) {
    return static_cast<std::size_t>(
        parseIntArg(argv[1], 1, LONG_MAX, static_cast<long>(fallback),
                    "sample count"));
  }
  return fallback;
}

/// Engine concurrency: pass argv[index] to pick a thread count (total,
/// including the caller); 0 or absent = all hardware threads.
inline int threadCount(int argc, char** argv, int index = 2) {
  if (argc > index) {
    return static_cast<int>(
        parseIntArg(argv[index], 0, INT_MAX, 0, "thread count"));
  }
  return 0;
}

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

}  // namespace nanoleak::bench
