#pragma once

#include <cstdint>
#include <string>
#include <string_view>

/// \file hash.hpp
/// Stable content hashing for on-disk artifacts. The result store stamps
/// every cell record with a hash of the experiment's result-affecting fields
/// so that shards written on different machines (or at different times) can
/// only be merged when they describe the exact same computation. FNV-1a is
/// used for its stability and simplicity — this is a fingerprint, not a
/// cryptographic commitment.

namespace saga {

/// FNV-1a's 64-bit offset basis: the hash of the empty string.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over a byte string. Matches the offset basis / prime used
/// by datasets::dataset_name_hash (kept separate: that one is a pinned seed
/// derivation, this one a general-purpose fingerprint). Passing the hash of
/// a prefix as `hash` continues it, so fnv1a64(b, fnv1a64(a)) ==
/// fnv1a64(a + b): a stream can be fingerprinted piece by piece.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view text,
                                              std::uint64_t hash = kFnv1a64Basis) noexcept {
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

/// Lowercase 16-character hexadecimal rendering of a 64-bit hash.
[[nodiscard]] inline std::string hash_hex(std::uint64_t hash) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[hash & 0xfULL];
    hash >>= 4;
  }
  return out;
}

}  // namespace saga
