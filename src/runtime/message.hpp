// Base class for everything sent through a Transport. Concrete protocol and
// application messages derive from it; receivers downcast through the family
// tag a message hierarchy sets (proto::as_proto, proto::as_coord) or the type
// tag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace sa::runtime {

struct Message {
  virtual ~Message() = default;
  /// Short type tag for traces, e.g. "reset", "video-packet".
  virtual std::string type_name() const = 0;
  /// Wire size used by bandwidth-limited channels; the default models a
  /// small control message.
  virtual std::size_t size_bytes() const { return 64; }
  /// Which message hierarchy this message belongs to, set once by that
  /// hierarchy's base class; 0 for messages outside any. A receiver tests it
  /// instead of a dynamic_cast to the hierarchy's base.
  std::uint8_t family() const { return family_; }

 protected:
  Message() = default;
  explicit Message(std::uint8_t family) : family_(family) {}

 private:
  std::uint8_t family_ = 0;
};

using MessagePtr = std::shared_ptr<const Message>;

}  // namespace sa::runtime
