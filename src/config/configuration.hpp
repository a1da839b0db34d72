// A system configuration: the set of components currently composed into the
// running system (paper §3.1).  Stored as a 64-bit mask indexed by
// ComponentId; cheap value semantics so planners can enumerate and hash
// millions of configurations.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "config/registry.hpp"

namespace sa::config {

class Configuration {
 public:
  Configuration() = default;
  explicit Configuration(std::uint64_t bits) : bits_(bits) {}

  /// Builds a configuration from component names, resolving via `registry`.
  static Configuration of(const ComponentRegistry& registry,
                          std::initializer_list<const char*> names);

  /// The registered components hosted on `process`.
  static Configuration hosted_by(const ComponentRegistry& registry, ProcessId process);

  /// Parses a paper-style bit string, MSB = highest ComponentId.  E.g. with 7
  /// components registered E1..D5, "0100101" is the paper's source
  /// configuration {D4, D1, E1}. Throws on length mismatch or non-binary
  /// characters.
  static Configuration from_bit_string(const std::string& bits, std::size_t component_count);

  std::uint64_t bits() const { return bits_; }

  bool contains(ComponentId id) const { return (bits_ >> id) & 1U; }
  bool empty() const { return bits_ == 0; }
  std::size_t count() const;

  Configuration with(ComponentId id) const { return Configuration(bits_ | (1ULL << id)); }
  Configuration without(ComponentId id) const { return Configuration(bits_ & ~(1ULL << id)); }

  /// Components present in this configuration but not in `other`, and vice
  /// versa — the components an adaptation must add / remove.
  Configuration minus(const Configuration& other) const {
    return Configuration(bits_ & ~other.bits_);
  }
  Configuration intersect(const Configuration& other) const {
    return Configuration(bits_ & other.bits_);
  }
  Configuration unite(const Configuration& other) const {
    return Configuration(bits_ | other.bits_);
  }

  /// Paper-style bit string, MSB = highest ComponentId.
  std::string to_bit_string(std::size_t component_count) const;

  /// Comma-separated component names, highest ComponentId first — matches the
  /// "configuration" column of the paper's Table 1 (e.g. "D5,D4,D1,E1").
  std::string describe(const ComponentRegistry& registry) const;

  /// Ids of all present components, ascending.
  std::vector<ComponentId> components(std::size_t component_count) const;
  /// Names of the present components `registry` holds, in ascending id.
  std::vector<std::string> names(const ComponentRegistry& registry) const;

  auto operator<=>(const Configuration&) const = default;

 private:
  std::uint64_t bits_ = 0;
};

}  // namespace sa::config

template <>
struct std::hash<sa::config::Configuration> {
  std::size_t operator()(const sa::config::Configuration& config) const noexcept {
    return std::hash<std::uint64_t>{}(config.bits());
  }
};
