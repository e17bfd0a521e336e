#include "util/error.h"

namespace nanoleak {

ParseError::ParseError(const std::string& what, int line)
    : Error(line > 0 ? what + " (line " + std::to_string(line) + ")" : what),
      line_(line) {}

void throwError(const char* message) { throw Error(message); }

void throwError(const std::string& message) { throw Error(message); }

}  // namespace nanoleak
