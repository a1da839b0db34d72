// DES block cipher, implemented from the FIPS 46-3 tables.
//
// The paper's case study hardens a video stream from DES 64-bit to DES
// 128-bit encoding.  We implement single DES for the 64-bit scheme and
// two-key EDE (encrypt-decrypt-encrypt, as in two-key Triple DES) for the
// "128-bit" scheme, so both codecs perform real keyed transformations: a
// decoder holding the wrong keys produces garbage that downstream checksum
// verification catches — exactly the corruption unsafe adaptation causes.
//
// The implementation is table-driven: combined SP-boxes (S-box substitution
// and P-permutation folded into eight 64-entry uint32 tables), the
// E-expansion done with one shift trick instead of a 48-bit permutation, and
// IP/FP as per-byte table lookups, all built once per process from the FIPS
// tables in des_fips.hpp and shared by every stream. Batched entry points
// (des_*_blocks, encrypt_into / decrypt_inplace) amortize call overhead
// across a span of packets and avoid intermediate buffers. The bit-by-bit
// reference it is checked against lives with the tests
// (tests/des_reference.hpp), outside the library.
//
// This is a simulation codec, not hardened crypto (ECB mode, no timing
// defenses); DES itself is long obsolete for security purposes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace sa::crypto {

/// 16 48-bit round keys (stored right-aligned in uint64).
struct DesKeySchedule {
  std::array<std::uint64_t, 16> subkeys{};
};

/// Expands a 64-bit key (parity bits ignored per PC-1) into round keys.
DesKeySchedule des_key_schedule(std::uint64_t key);

/// Process-wide schedule cache: N streams encrypting under the same key share
/// one schedule instead of each expanding it. The returned reference is
/// stable for the process lifetime. Thread-safe.
const DesKeySchedule& shared_key_schedule(std::uint64_t key);

// --- table-driven fast path (the default) -------------------------------------

std::uint64_t des_encrypt_block(std::uint64_t block, const DesKeySchedule& schedule);
std::uint64_t des_decrypt_block(std::uint64_t block, const DesKeySchedule& schedule);

/// Two-key EDE: E_{k1}(D_{k2}(E_{k1}(block))) — the "DES 128-bit" scheme.
std::uint64_t des_ede_encrypt_block(std::uint64_t block, const DesKeySchedule& k1,
                                    const DesKeySchedule& k2);
std::uint64_t des_ede_decrypt_block(std::uint64_t block, const DesKeySchedule& k1,
                                    const DesKeySchedule& k2);

/// Batched block APIs: transform `count` blocks in place. One table fetch and
/// one call for the whole span — the per-span cost the batched data plane pays
/// per packet batch, not per block.
void des_encrypt_blocks(std::uint64_t* blocks, std::size_t count, const DesKeySchedule& schedule);
void des_decrypt_blocks(std::uint64_t* blocks, std::size_t count, const DesKeySchedule& schedule);
void des_ede_encrypt_blocks(std::uint64_t* blocks, std::size_t count, const DesKeySchedule& k1,
                            const DesKeySchedule& k2);
void des_ede_decrypt_blocks(std::uint64_t* blocks, std::size_t count, const DesKeySchedule& k1,
                            const DesKeySchedule& k2);

using Bytes = std::vector<std::uint8_t>;

/// Byte-stream DES in ECB mode with PKCS#7 padding.
class Des64Cipher {
 public:
  explicit Des64Cipher(std::uint64_t key) : schedule_(des_key_schedule(key)) {}

  /// Ciphertext size for an `n`-byte plaintext (PKCS#7 always pads).
  static std::size_t padded_size(std::size_t n) { return n + 8 - n % 8; }

  /// Zero-intermediate encrypt: pads `src` into `dst` (which must hold
  /// padded_size(src.size()) bytes) and encrypts the blocks in place there.
  void encrypt_into(std::span<const std::uint8_t> src, std::uint8_t* dst) const;

  /// In-place decrypt of `n` bytes (n % 8 == 0; throws std::invalid_argument
  /// otherwise). Returns the payload size after the PKCS#7 strip. A wrong key
  /// produces garbage: when the padding is invalid the size stays `n`, so the
  /// corruption survives to the integrity check instead of throwing.
  std::size_t decrypt_inplace(std::uint8_t* data, std::size_t n) const;

 private:
  DesKeySchedule schedule_;
};

/// Two-key EDE variant ("DES 128-bit" in the paper's case study).
class Des128Cipher {
 public:
  Des128Cipher(std::uint64_t key1, std::uint64_t key2)
      : k1_(des_key_schedule(key1)), k2_(des_key_schedule(key2)) {}

  static std::size_t padded_size(std::size_t n) { return n + 8 - n % 8; }
  void encrypt_into(std::span<const std::uint8_t> src, std::uint8_t* dst) const;
  std::size_t decrypt_inplace(std::uint8_t* data, std::size_t n) const;

 private:
  DesKeySchedule k1_;
  DesKeySchedule k2_;
};

}  // namespace sa::crypto
