#include "config/configuration.hpp"

#include <bit>
#include <stdexcept>

namespace sa::config {

Configuration Configuration::of(const ComponentRegistry& registry,
                                std::initializer_list<const char*> names) {
  Configuration config;
  for (const char* name : names) {
    config = config.with(registry.require(name));
  }
  return config;
}

Configuration Configuration::hosted_by(const ComponentRegistry& registry, ProcessId process) {
  Configuration config;
  for (ComponentId id = 0; id < registry.size(); ++id) {
    if (registry.process(id) == process) config = config.with(id);
  }
  return config;
}

Configuration Configuration::from_bit_string(const std::string& bits,
                                             std::size_t component_count) {
  if (bits.size() != component_count) {
    throw std::invalid_argument("bit string length " + std::to_string(bits.size()) +
                                " != component count " + std::to_string(component_count));
  }
  Configuration config;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[i];
    if (c != '0' && c != '1') throw std::invalid_argument("bit string must be binary");
    if (c == '1') {
      config = config.with(static_cast<ComponentId>(component_count - 1 - i));
    }
  }
  return config;
}

std::size_t Configuration::count() const { return static_cast<std::size_t>(std::popcount(bits_)); }

std::string Configuration::to_bit_string(std::size_t component_count) const {
  std::string out(component_count, '0');
  for (std::size_t i = 0; i < component_count; ++i) {
    if (contains(static_cast<ComponentId>(component_count - 1 - i))) out[i] = '1';
  }
  return out;
}

std::string Configuration::describe(const ComponentRegistry& registry) const {
  std::string out;
  for (std::size_t i = registry.size(); i-- > 0;) {
    const auto id = static_cast<ComponentId>(i);
    if (!contains(id)) continue;
    if (!out.empty()) out += ',';
    out += registry.name(id);
  }
  return out;
}

std::vector<ComponentId> Configuration::components(std::size_t component_count) const {
  std::vector<ComponentId> out;
  for (std::size_t i = 0; i < component_count; ++i) {
    if (contains(static_cast<ComponentId>(i))) out.push_back(static_cast<ComponentId>(i));
  }
  return out;
}

std::vector<std::string> Configuration::names(const ComponentRegistry& registry) const {
  std::vector<std::string> out;
  for (const ComponentId id : components(registry.size())) out.push_back(registry.name(id));
  return out;
}

}  // namespace sa::config
