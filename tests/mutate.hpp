// Seeded byte-level mutation for the hostile-input fuzz tests (store
// readers, shard wire, spec and campaign parsers). Header-only; include
// from a test_*.cpp.
#pragma once

#include <cstddef>
#include <random>
#include <string>
#include <string_view>

namespace vinoc::testing_util {

/// The characters the JSONL formats are made of.
inline constexpr std::string_view kJsonlSyntax = "\n{}\":,.-_0123456789abcdef";

/// Applies 1-3 random byte edits: overwrite, insert, delete, or an edit of
/// a line break (joins two lines, tears the tail, or leaves a blank line).
/// Half the written bytes come from `syntax`, the characters the format
/// under test is made of, so edits hit structure, not only noise.
inline std::string mutate(std::string text, std::mt19937& rng,
                          std::string_view syntax = kJsonlSyntax) {
  auto random_byte = [&]() {
    if (rng() % 2 == 0) return syntax[rng() % syntax.size()];
    return static_cast<char>(rng() % 256);
  };
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits; ++e) {
    switch (rng() % 4) {
      case 0:
        if (!text.empty()) text[rng() % text.size()] = random_byte();
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                       rng() % (text.size() + 1)),
                    random_byte());
        break;
      case 2:
        if (!text.empty()) {
          text.erase(text.begin() +
                     static_cast<std::ptrdiff_t>(rng() % text.size()));
        }
        break;
      default: {
        std::size_t nl = text.find('\n', rng() % (text.size() + 1));
        if (nl == std::string::npos) nl = text.find('\n');
        if (nl == std::string::npos) break;
        if (rng() % 2 == 0) {
          text.erase(nl, 1);
        } else {
          text.insert(nl, 1, '\n');
        }
        break;
      }
    }
  }
  return text;
}

}  // namespace vinoc::testing_util
