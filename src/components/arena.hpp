// PacketArena / PacketRef: the zero-copy batched packet representation.
//
// An owning Packet (its own heap payload vector) would cost one allocation
// per packet plus a copy at every size-changing filter. Filters therefore
// never see Packets: every payload of a batch lives contiguously in an arena
// and filters pass lightweight views (PacketRef) to each other:
//
//   * PacketArena owns chunked, address-stable payload storage plus a stable
//     deque of PacketHeader records. reset() recycles the chunks for the next
//     batch without freeing them, so a steady-state stream allocates nothing.
//   * PacketRef is a pointer-sized view of one header. Filters mutate the
//     header in place (push/pop tags, rebind the payload to a transformed
//     buffer) and forward the SAME ref on the bypass path — zero bytes move.
//   * PacketSink receives filter outputs; it carries the arena so filters can
//     allocate transformed payloads for the refs they emit.
//
// Lifetime contract: a PacketRef is valid until the owning arena's reset().
// Batches therefore never outlive their arena slot; the pump recycles arenas
// only after the batch has fully left the chain (see video/pump.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "components/packet.hpp"

namespace sa::components {

/// One packet's mutable metadata inside an arena. `data` points into the
/// arena's chunk storage (or to a transformed buffer also inside the arena).
struct PacketHeader {
  std::uint64_t stream_id = 0;
  std::uint64_t sequence = 0;
  std::uint64_t plaintext_checksum = 0;
  std::uint8_t* data = nullptr;
  std::uint32_t size = 0;
  TagStack tags;
};

/// Non-owning view of an arena packet; cheap to copy, mutates in place.
class PacketRef {
 public:
  PacketRef() = default;
  explicit PacketRef(PacketHeader* header) : header_(header) {}

  bool valid() const { return header_ != nullptr; }

  std::uint64_t stream_id() const { return header_->stream_id; }
  std::uint64_t sequence() const { return header_->sequence; }
  std::uint64_t plaintext_checksum() const { return header_->plaintext_checksum; }
  void set_plaintext_checksum(std::uint64_t checksum) {
    header_->plaintext_checksum = checksum;
  }

  std::span<std::uint8_t> payload() const { return {header_->data, header_->size}; }
  std::uint8_t* data() const { return header_->data; }
  std::uint32_t size() const { return header_->size; }

  /// Rebinds the payload to a (typically freshly allocated) buffer — how a
  /// size-changing filter (encryption padding, compression) replaces the
  /// payload without touching the old bytes.
  void rebind(std::uint8_t* data, std::uint32_t size) {
    header_->data = data;
    header_->size = size;
  }
  /// Shrinks in place (e.g. stripping cipher padding). `size` must not grow.
  void truncate(std::uint32_t size) { header_->size = size; }

  TagStack& tags() const { return header_->tags; }

  bool intact() const {
    return header_->tags.empty() &&
           payload_checksum(header_->data, header_->size) == header_->plaintext_checksum;
  }

  /// Materializes an owning Packet (copies the payload) — the exit from the
  /// arena to the transport/wire form (FilterChain::submit's output, sinks
  /// that keep packets past the arena's reset()).
  Packet to_packet() const;

  PacketHeader* header() const { return header_; }

 private:
  PacketHeader* header_ = nullptr;
};

struct ArenaStats {
  std::uint64_t packets = 0;        ///< headers created since construction
  std::uint64_t bytes_allocated = 0;///< payload bytes handed out
  std::uint64_t payload_copies = 0; ///< payload byte-copies INTO the arena
  std::uint64_t resets = 0;
  std::uint64_t chunk_allocs = 0;   ///< heap chunk allocations (0 in steady state)
};

class PacketArena {
 public:
  explicit PacketArena(std::size_t chunk_bytes = 256 * 1024);

  PacketArena(const PacketArena&) = delete;
  PacketArena& operator=(const PacketArena&) = delete;

  /// Raw payload storage; address-stable until reset().
  std::uint8_t* alloc(std::size_t bytes);

  /// New packet with an uninitialized payload buffer the caller fills in
  /// place (producers generate directly into the arena — no copy counted).
  PacketRef make_blank(std::uint64_t stream_id, std::uint64_t sequence, std::size_t bytes);

  /// New packet copying `payload` in and stamping the plaintext checksum.
  PacketRef make(std::uint64_t stream_id, std::uint64_t sequence,
                 std::span<const std::uint8_t> payload);

  /// Copies an owning Packet into the arena — the entry from the
  /// transport/wire form (FilterChain::submit's batch of one).
  PacketRef adopt(const Packet& packet);

  /// Header-only packet whose payload the caller will rebind.
  PacketRef make_header(std::uint64_t stream_id, std::uint64_t sequence);

  /// Recycles all storage: headers are dropped and chunks rewound, not
  /// freed. Every PacketRef into this arena becomes invalid.
  void reset();

  std::size_t live_packets() const { return headers_.size(); }
  const ArenaStats& stats() const { return stats_; }

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> bytes;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t active_chunk_ = 0;
  std::deque<PacketHeader> headers_;  ///< deque: stable addresses on push_back
  ArenaStats stats_;
};

/// Receives filter outputs on the batched path. Carries the arena so filters
/// can allocate transformed payloads for the refs they emit.
class PacketSink {
 public:
  explicit PacketSink(PacketArena& arena) : arena_(&arena) {}
  virtual ~PacketSink() = default;

  PacketArena& arena() { return *arena_; }

  virtual void emit(PacketRef ref) = 0;

 private:
  PacketArena* arena_;
};

/// PacketSink collecting into a caller-owned vector (scratch between filters).
class VectorSink final : public PacketSink {
 public:
  VectorSink(PacketArena& arena, std::vector<PacketRef>& out)
      : PacketSink(arena), out_(&out) {}

  void emit(PacketRef ref) override { out_->push_back(ref); }

 private:
  std::vector<PacketRef>* out_;
};

}  // namespace sa::components
