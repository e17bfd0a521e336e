// Library error type and precondition checks.
#pragma once

#include <stdexcept>
#include <string>

namespace nanoleak {

/// Base class for all errors thrown by nanoleak.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an input file or netlist description is malformed.
class ParseError : public Error {
 public:
  ParseError(const std::string& what, int line);
  /// 1-based line number in the offending input, or 0 if unknown.
  int line() const { return line_; }

 private:
  int line_;
};

/// Thrown when a numerical routine fails to converge.
class ConvergenceError : public Error {
 public:
  explicit ConvergenceError(const std::string& what) : Error(what) {}
};

/// Throws nanoleak::Error with `message`. Out of line and never returning,
/// so the inline require() overloads compile to a compare and a branch.
/// Call sites whose message is concatenated call it directly, behind their
/// own condition, so the message is only built when the check fails.
[[noreturn]] void throwError(const char* message);
[[noreturn]] void throwError(const std::string& message);

/// Throws nanoleak::Error with `message` if `condition` is false.
/// Used for precondition checks on public API boundaries (I.5/I.6 of the
/// C++ Core Guidelines: state and check preconditions). String literals
/// bind to this overload without building a std::string, so a passing
/// check allocates nothing.
inline void require(bool condition, const char* message) {
  if (!condition) [[unlikely]] {
    throwError(message);
  }
}

/// As above, for a message that is already a std::string.
inline void require(bool condition, const std::string& message) {
  if (!condition) [[unlikely]] {
    throwError(message);
  }
}

}  // namespace nanoleak
