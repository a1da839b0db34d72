// Test-only helpers: run one owning Packet through one filter as a
// one-packet span.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "components/arena.hpp"
#include "components/filter.hpp"

namespace sa::components {

/// What `filter` emitted for `packet`, in order (zero, one or several).
inline std::vector<Packet> run_filter(Filter& filter, Packet packet) {
  PacketArena arena(4096);
  PacketRef ref = arena.adopt(packet);
  std::vector<PacketRef> emitted;
  VectorSink sink(arena, emitted);
  filter.process_span({&ref, 1}, sink);
  std::vector<Packet> out;
  out.reserve(emitted.size());
  for (const PacketRef& r : emitted) out.push_back(r.to_packet());
  return out;
}

/// The single packet `filter` emits for `packet`; throws (failing the test)
/// when it emits none or several.
inline Packet run_one(Filter& filter, Packet packet) {
  std::vector<Packet> out = run_filter(filter, std::move(packet));
  if (out.size() != 1) {
    throw std::logic_error(filter.name() + " emitted " + std::to_string(out.size()) +
                           " packets, expected 1");
  }
  return std::move(out.front());
}

}  // namespace sa::components
