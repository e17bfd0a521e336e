#include "engine/sweep.h"

namespace nanoleak::engine {

std::vector<std::vector<bool>> allInputVectors(gates::GateKind kind) {
  const int pins = gates::inputCount(kind);
  std::vector<std::vector<bool>> vectors;
  vectors.reserve(std::size_t{1} << pins);
  for (std::size_t index = 0; index < (std::size_t{1} << pins); ++index) {
    std::vector<bool> vector(pins);
    for (int pin = 0; pin < pins; ++pin) {
      vector[pin] = (index >> pin) & 1;
    }
    vectors.push_back(std::move(vector));
  }
  return vectors;
}

}  // namespace nanoleak::engine
