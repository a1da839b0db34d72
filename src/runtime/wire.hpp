// Wire format for messages crossing process boundaries (SocketTransport).
//
// Frames are little-endian and fully length-checked:
//
//   magic "SADP" (u32) | version (u8) | codec id (u16) | from (u32) |
//   to (u32) | incarnation (u64) | seq (u64) | payload length (u32) | payload
//
// The payload encoding is owned by a per-message-type codec registered under
// a stable 16-bit id (register_wire_codec); the runtime layer knows nothing
// about concrete message types, so the registry is how proto / video messages
// plug in without inverting the layering. `incarnation` identifies one
// process lifetime of the sending transport: a respawned process starts a
// fresh sequence space, and receivers use the (incarnation, seq) pair to keep
// the FIFO channel contract across crashes (see socket_runtime.hpp).
//
// Decoding never trusts the peer: WireReader bounds-checks every read and
// throws WireError on truncation, length overruns, unknown codec ids, bad
// magic, or trailing bytes — a garbage or hostile datagram is rejected
// without undefined behavior (fuzzed in socket_wire_test.cpp under ASan).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/transport.hpp"

namespace sa::runtime {

/// Malformed frame or payload; decoding rejects the input with this (and only
/// this) exception so receivers can drop bad datagrams without crashing.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// u32 length prefix + raw bytes.
  void str(std::string_view s);
  void bytes(const std::uint8_t* data, std::size_t size);

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str();
  /// Bulk copy of `size` raw bytes into `out`.
  void bytes(std::uint8_t* out, std::size_t size);

  std::size_t remaining() const { return size_ - pos_; }
  /// Validates a decoder-claimed element count against the bytes left: a
  /// hostile length field cannot force a huge allocation because every
  /// element must occupy at least `min_element_bytes` of real input.
  std::size_t vec_len(std::size_t min_element_bytes, const char* what);
  /// Throws unless the reader consumed exactly its input.
  void expect_done(const char* what);

 private:
  void need(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

using WireEncodeFn = std::function<void(const Message&, WireWriter&)>;
using WireDecodeFn = std::function<MessagePtr(WireReader&)>;

/// Registers the codec for one concrete Message subtype. `type_name` must
/// match Message::type_name() of the instances encoded (that is the encode
/// dispatch key). Re-registering the same (id, type_name) is a no-op so
/// library registration hooks are idempotent; a conflicting re-registration
/// throws std::logic_error.
void register_wire_codec(std::uint16_t id, std::string type_name, WireEncodeFn encode,
                         WireDecodeFn decode);
bool wire_codec_registered(std::uint16_t id);

/// One decoded frame. `codec_id` is exposed for diagnostics.
struct WireFrame {
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t incarnation = 0;
  std::uint64_t seq = 0;
  std::uint16_t codec_id = 0;
  MessagePtr message;
};

inline constexpr std::uint32_t kWireMagic = 0x50444153;  // "SADP" little-endian
inline constexpr std::uint8_t kWireVersion = 2;  ///< 2: a reset's command is two u64 masks
/// Fixed frame header size in bytes (everything before the payload).
inline constexpr std::size_t kWireHeaderBytes = 4 + 1 + 2 + 4 + 4 + 8 + 8 + 4;

/// Throws std::logic_error when no codec is registered for the message's
/// type_name (a programming error, not a wire condition).
std::vector<std::uint8_t> encode_frame(NodeId from, NodeId to, std::uint64_t incarnation,
                                       std::uint64_t seq, const Message& message);
/// Throws WireError on any malformed input.
WireFrame decode_frame(const std::uint8_t* data, std::size_t size);

/// Hex helpers for embedding frames in JSONL trace artifacts.
std::string to_hex(const std::uint8_t* data, std::size_t size);
/// Throws WireError on odd length or non-hex characters.
std::vector<std::uint8_t> from_hex(std::string_view hex);

}  // namespace sa::runtime
