// DES codec filters: the paper's E1/E2 encoders and D1..D5 decoders (§5).
//
// Encoders encrypt the payload and push their scheme tag onto the packet's
// encoding stack; decoders pop a matching tag and decrypt, or *bypass* —
// "when it receives a packet not encoded by the corresponding encoder, it
// simply forwards the packet to the next filter in the chain."
//
// The hand-held's D2 is the 128/64-bit *compatible* decoder: it accepts both
// schemes, which is exactly what makes the paper's intermediate safe
// configurations (e.g. D5,D4,D2,E1 and D5,D4,D2,E2) possible.
#pragma once

#include <cstdint>
#include <string>

#include "components/filter.hpp"
#include "crypto/des.hpp"

namespace sa::crypto {

inline constexpr const char* kTagDes64 = "des64";
inline constexpr const char* kTagDes128 = "des128";

/// Default key material shared by the case-study server and clients.
inline constexpr std::uint64_t kDefaultKey64 = 0x133457799BBCDFF1ULL;
inline constexpr std::uint64_t kDefaultKey128a = 0x0123456789ABCDEFULL;
inline constexpr std::uint64_t kDefaultKey128b = 0xFEDCBA9876543210ULL;

enum class Scheme { Des64, Des128 };

std::string_view scheme_tag(Scheme scheme);

struct DesKeys {
  std::uint64_t key64 = kDefaultKey64;
  std::uint64_t key128a = kDefaultKey128a;
  std::uint64_t key128b = kDefaultKey128b;
};

/// Encrypts payloads under one scheme; pushes the scheme tag.
class DesEncoderFilter final : public components::Filter {
 public:
  DesEncoderFilter(std::string name, Scheme scheme, DesKeys keys = {},
                   runtime::Time processing_time = runtime::us(80));

  Scheme scheme() const { return scheme_; }

  /// Pads + encrypts each payload into a fresh arena buffer (one pass, no
  /// intermediate vector) and rebinds the ref to it.
  void process_span(std::span<components::PacketRef> batch,
                    components::PacketSink& sink) override;

  components::StateSnapshot refract() const override;

 private:
  Scheme scheme_;
  Des64Cipher des64_;
  Des128Cipher des128_;
};

/// Decrypts payloads whose top encoding tag matches an accepted scheme;
/// bypasses everything else.
class DesDecoderFilter final : public components::Filter {
 public:
  /// `accept64` / `accept128` select the accepted schemes; the paper's D2 is
  /// the decoder with both set.
  DesDecoderFilter(std::string name, bool accept64, bool accept128, DesKeys keys = {},
                   runtime::Time processing_time = runtime::us(80));

  bool accepts64() const { return accept64_; }
  bool accepts128() const { return accept128_; }

  /// Decrypts each accepted payload IN PLACE in the arena and truncates the
  /// ref past the stripped padding; bypasses zero-copy. A payload carrying an
  /// accepted tag but not block-aligned cannot be ciphertext of this scheme,
  /// so it bypasses too (tag kept) instead of failing the whole batch.
  void process_span(std::span<components::PacketRef> batch,
                    components::PacketSink& sink) override;

  components::StateSnapshot refract() const override;

 private:
  bool accept64_;
  bool accept128_;
  Des64Cipher des64_;
  Des128Cipher des128_;
};

// Convenience factories matching the paper's component names.
components::FilterPtr make_encoder_e1(DesKeys keys = {});  ///< DES 64-bit encoder
components::FilterPtr make_encoder_e2(DesKeys keys = {});  ///< DES 128-bit encoder
components::FilterPtr make_decoder(const std::string& name, bool accept64, bool accept128,
                                   DesKeys keys = {});

}  // namespace sa::crypto
