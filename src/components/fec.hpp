// XOR forward-error-correction filters — the FEC family the paper lists among
// MetaSocket filters, used by the adaptive-FEC example and loss experiments.
//
// Systematic code: every data packet passes through unchanged (tagged with
// its group id); after each group of `group_size` data packets the encoder
// emits one parity packet whose payload XORs the group's sequence numbers,
// checksums, lengths, and (length-padded) payloads. The decoder absorbs
// parity packets and, when a group is missing exactly one data packet,
// reconstructs and emits it.
//
// Layering: because group bookkeeping rides on the packet's encoding stack,
// the FEC pair composes transparently with the DES codecs — place the FEC
// encoder BEFORE the encryption encoder on the sender ([FEC, E1]) and the FEC
// decoder AFTER decryption on the receiver ([D1, FEC]); parity payloads are
// then encrypted/decrypted like any other packet.
//
// Decoders are safe without encoders (no parity ever arrives; data packets
// with no fec tag bypass), mirroring the case study's decoder bypass rule —
// so a safe insertion order is decoders first, then the encoder, and the
// dependency invariant is the familiar "FecEncoder -> all FecDecoders".
#pragma once

#include <map>

#include "components/filter.hpp"

namespace sa::components {

/// Encoder: tags data packets "fec:<group>" and appends a parity packet
/// (tagged "fec-parity:<group>:<k>") after every complete group.
class XorFecEncoderFilter final : public Filter {
 public:
  XorFecEncoderFilter(std::string name, std::size_t group_size,
                      runtime::Time processing_time = runtime::us(30));

  /// Data packets are tagged in place and forwarded zero-copy; each parity
  /// packet is built directly in the sink's arena and emitted right after the
  /// data packet that completes its group (…dk, parity, dk+1…).
  void process_span(std::span<PacketRef> batch, PacketSink& sink) override;

  std::size_t group_size() const { return group_size_; }
  std::uint64_t parity_emitted() const { return parity_emitted_; }

  StateSnapshot refract() const override;

 private:
  void accumulate(std::uint64_t sequence, std::uint64_t checksum,
                  std::span<const std::uint8_t> payload, const TagStack& stack);

  struct Accumulator {
    std::uint64_t seq_xor = 0;
    std::uint64_t checksum_xor = 0;
    std::uint32_t length_xor = 0;
    Payload payload_xor;
    TagStack common_stack;  // stack shared by the group
    std::size_t count = 0;
  };

  std::size_t group_size_;
  std::uint64_t next_group_ = 0;
  Accumulator accumulator_;
  std::uint64_t parity_emitted_ = 0;
};

/// Decoder: strips "fec:<group>" tags, absorbs parity, reconstructs a single
/// missing packet per group.
class XorFecDecoderFilter final : public Filter {
 public:
  explicit XorFecDecoderFilter(std::string name, runtime::Time processing_time = runtime::us(30));

  /// Data packets pop their tag in place and forward zero-copy; parity
  /// packets are absorbed; a reconstructed packet is built directly in the
  /// sink's arena and emitted right after the packet that completed its group.
  void process_span(std::span<PacketRef> batch, PacketSink& sink) override;

  std::uint64_t recovered() const { return recovered_; }

  /// Replacement-time state transfer: adopts the predecessor decoder's open
  /// group bookkeeping so packets buffered across the swap stay repairable.
  bool adopt_state(Component& predecessor) override;

  StateSnapshot refract() const override;

 private:
  struct GroupState {
    std::size_t expected = 0;  // k, learned from the parity packet (0 = unknown)
    std::size_t received = 0;
    std::uint64_t seq_xor = 0;
    std::uint64_t checksum_xor = 0;
    std::uint32_t length_xor = 0;
    Payload payload_xor;
    bool parity_seen = false;
    std::uint64_t parity_seq_xor = 0;
    std::uint64_t parity_checksum_xor = 0;
    std::uint32_t parity_length_xor = 0;
    Payload parity_payload_xor;
    TagStack parity_stack;
  };

  void absorb_data(GroupState& group, std::uint64_t sequence, std::uint64_t checksum,
                   std::span<const std::uint8_t> payload);
  void absorb_parity(GroupState& group, std::size_t k, std::uint64_t checksum,
                     std::span<const std::uint8_t> payload, TagStack residue);
  /// True when the group has its parity and is missing exactly one data
  /// packet; erases groups that completed with nothing to repair.
  bool reconstruction_due(std::uint64_t group_id, GroupState& group);
  /// XORs the missing packet straight into a fresh arena buffer. Returns an
  /// invalid ref when no reconstruction is due (or the parity is malformed).
  PacketRef try_reconstruct_into(std::uint64_t group_id, GroupState& group,
                                 std::uint64_t stream_id, PacketArena& arena);
  void prune();

  std::map<std::uint64_t, GroupState> groups_;
  std::uint64_t recovered_ = 0;
};

}  // namespace sa::components
