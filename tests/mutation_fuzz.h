// Seeded mutation fuzzing of the external-input parsers (.bench text,
// serve frames, golden JSON), shared by the layer test binaries that own
// those parsers. A valid input is mutated - bytes replaced, inserted or
// deleted from a syntax alphabet, the text truncated, a slice duplicated
// - and every mutant must either parse or throw nanoleak::Error: no other
// exception type, and (under the sanitizer legs) no memory or UB fault.
// Mutant i is a pure function of (inputs, alphabet, seed, i), and a
// failure message carries the mutant's text, so every counterexample is
// reproducible from the log alone.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace nanoleak::fuzz {

/// Mutant `index` of `text`: one to three edits drawn from the stream
/// deriveStreamSeed(seed, index), each a byte replace, insert or delete
/// (new bytes come from `alphabet`), a truncation, or a duplicated slice
/// of up to 64 bytes inserted at a random position.
inline std::string mutate(const std::string& text, std::string_view alphabet,
                          std::uint64_t seed, std::size_t index) {
  Rng rng(deriveStreamSeed(seed, index));
  std::string out = text;
  const auto symbol = [&] {
    return alphabet[rng.uniformInt(alphabet.size())];
  };
  const std::uint64_t edits = 1 + rng.uniformInt(3);
  for (std::uint64_t edit = 0; edit < edits; ++edit) {
    const std::size_t pos = rng.uniformInt(out.size() + 1);  // 0..size
    switch (rng.uniformInt(5)) {
      case 0:  // replace
        if (pos < out.size()) {
          out[pos] = symbol();
        }
        break;
      case 1:  // insert
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos), symbol());
        break;
      case 2:  // delete
        if (pos < out.size()) {
          out.erase(pos, 1);
        }
        break;
      case 3:  // truncate
        out.resize(pos);
        break;
      default: {  // duplicate the slice starting at pos somewhere
        const std::size_t len = std::min<std::size_t>(
            out.size() - pos, 1 + rng.uniformInt(64));
        const std::string slice = out.substr(pos, len);
        out.insert(rng.uniformInt(out.size() + 1), slice);
        break;
      }
    }
  }
  return out;
}

/// Feeds `mutations` mutants to `parse` (mutant i mutates inputs[i %
/// inputs.size()]) and fails on the first one that throws anything but
/// nanoleak::Error, printing its index and text. Also requires both
/// outcomes to occur, so the mutator neither leaves every input valid nor
/// breaks every one before the parser's deeper checks run.
template <typename Parse>
void expectParsesOrThrowsError(const std::vector<std::string>& inputs,
                               std::string_view alphabet, std::uint64_t seed,
                               std::size_t mutations, Parse parse) {
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < mutations; ++i) {
    const std::string text =
        mutate(inputs[i % inputs.size()], alphabet, seed, i);
    try {
      parse(text);
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " (seed " << seed
             << ") threw a non-nanoleak exception: " << e.what()
             << "\n--- input ---\n"
             << text << "\n--- end ---";
    } catch (...) {
      FAIL() << "mutant " << i << " (seed " << seed
             << ") threw a non-std exception\n--- input ---\n"
             << text << "\n--- end ---";
    }
  }
  EXPECT_GT(parsed, 0u) << "no mutant parsed";
  EXPECT_GT(rejected, 0u) << "no mutant was rejected";
}

}  // namespace nanoleak::fuzz
