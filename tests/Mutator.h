//===- tests/Mutator.h - Seeded byte mutator for fuzz harnesses --*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one mutator every fuzz harness draws its inputs from: byte flips,
/// range deletes and duplicates, truncation, and insertion of quotes,
/// brackets, backslashes, colons, braces, newlines, carriage returns, tabs
/// and bytes >= 0x80. A harness seeds the Rng from its FuzzRun, so a
/// mutant is reproduced from its seed and index.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_TESTS_MUTATOR_H
#define SELDON_TESTS_MUTATOR_H

#include "support/Rng.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>

namespace seldon {
namespace testutil {

/// One run of a fuzz harness: \c Mutants inputs, the mutation stream
/// seeded by \c Seed.
struct FuzzRun {
  uint64_t Seed;
  size_t Mutants;
};

inline void PrintTo(const FuzzRun &Run, std::ostream *OS) {
  *OS << "seed " << Run.Seed << ", " << Run.Mutants << " mutants";
}

/// Applies one to four random mutations to \p Text.
inline std::string mutate(std::string Text, Rng &Random) {
  static const char *const Inserts[] = {
      "'",  "\"", "'''", "\"\"\"", "(", ")",    "[",    "]",
      "{",  "}",  "\\",  ":",      "\n", "\r",  "\t",   "\\\n",
      "f'", "{{", "}}",  "\xc3\xa9", "\xff", "\x80", "\r\n", "\\\r\n"};
  size_t Steps = 1 + Random.nextBelow(4);
  for (size_t S = 0; S < Steps; ++S) {
    size_t At = Text.empty() ? 0 : Random.nextBelow(Text.size() + 1);
    size_t Len = 1 + Random.nextBelow(16);
    switch (Random.nextBelow(5)) {
    case 0: // Flip one byte.
      if (!Text.empty())
        Text[std::min(At, Text.size() - 1)] ^=
            static_cast<char>(1 + Random.nextBelow(255));
      break;
    case 1: // Delete a range.
      Text.erase(At, Len);
      break;
    case 2: // Duplicate a range in place.
      Text.insert(At, Text.substr(At, Len));
      break;
    case 3: // Truncate.
      Text.resize(At);
      break;
    default: // Insert a structural fragment.
      Text.insert(At, Inserts[Random.nextBelow(std::size(Inserts))]);
      break;
    }
  }
  return Text;
}

} // namespace testutil
} // namespace seldon

#endif // SELDON_TESTS_MUTATOR_H
