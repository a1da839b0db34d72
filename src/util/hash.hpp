// The fingerprint mixer every structural hash in the library folds its
// fields with (protocol cores, the model checker, the fleet digest).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace sa::util {

/// boost::hash_combine-style step: folds `v` into `h`.
constexpr void hash_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

/// Folds the std::hash of `s` into `h`.
inline void hash_mix(std::uint64_t& h, const std::string& s) {
  hash_mix(h, std::hash<std::string>{}(s));
}

}  // namespace sa::util
