#include <gtest/gtest.h>

#include "crypto/des.hpp"
#include "des_reference.hpp"
#include "util/rng.hpp"

namespace sa::crypto {
namespace {

// --- block-level known-answer tests ---------------------------------------------

TEST(DesBlock, Fips46KnownAnswer) {
  // The classic worked example (used in countless DES references):
  // key 133457799BBCDFF1, plaintext 0123456789ABCDEF -> 85E813540F0AB405.
  const auto schedule = des_key_schedule(0x133457799BBCDFF1ULL);
  EXPECT_EQ(des_encrypt_block(0x0123456789ABCDEFULL, schedule), 0x85E813540F0AB405ULL);
  EXPECT_EQ(des_decrypt_block(0x85E813540F0AB405ULL, schedule), 0x0123456789ABCDEFULL);
}

TEST(DesBlock, NistVectorAllZeroKey) {
  // With an all-zeros key, encrypting all-zeros gives 8CA64DE9C1B123A7.
  const auto schedule = des_key_schedule(0);
  EXPECT_EQ(des_encrypt_block(0, schedule), 0x8CA64DE9C1B123A7ULL);
}

TEST(DesBlock, RoundTripRandomBlocks) {
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t key = rng.next_u64();
    const std::uint64_t block = rng.next_u64();
    const auto schedule = des_key_schedule(key);
    EXPECT_EQ(des_decrypt_block(des_encrypt_block(block, schedule), schedule), block);
  }
}

TEST(DesBlock, WrongKeyDoesNotDecrypt) {
  const auto k1 = des_key_schedule(0x133457799BBCDFF1ULL);
  const auto k2 = des_key_schedule(0x133457799BBCDFF0ULL);  // parity-only change
  const auto k3 = des_key_schedule(0x0123456789ABCDEFULL);
  const std::uint64_t block = 0xDEADBEEFCAFEF00DULL;
  // Parity bits are discarded by PC-1, so k2 == k1 functionally...
  EXPECT_EQ(des_decrypt_block(des_encrypt_block(block, k1), k2), block);
  // ...but a genuinely different key produces garbage.
  EXPECT_NE(des_decrypt_block(des_encrypt_block(block, k1), k3), block);
}

TEST(DesBlock, ComplementationProperty) {
  // DES's famous complementation property: E_{~k}(~p) == ~E_k(p).
  util::Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t key = rng.next_u64();
    const std::uint64_t plain = rng.next_u64();
    const auto schedule = des_key_schedule(key);
    const auto complemented = des_key_schedule(~key);
    EXPECT_EQ(des_encrypt_block(~plain, complemented), ~des_encrypt_block(plain, schedule));
  }
}

TEST(DesBlock, EdeRoundTripAndDistinctFromSingle) {
  util::Rng rng(23);
  const auto k1 = des_key_schedule(rng.next_u64());
  const auto k2 = des_key_schedule(rng.next_u64());
  const std::uint64_t block = rng.next_u64();
  const std::uint64_t cipher = des_ede_encrypt_block(block, k1, k2);
  EXPECT_EQ(des_ede_decrypt_block(cipher, k1, k2), block);
  EXPECT_NE(cipher, des_encrypt_block(block, k1));
}

TEST(DesBlock, EdeWithEqualKeysDegeneratesToSingleDes) {
  // E_k(D_k(E_k(x))) == E_k(x): the standard 3DES backward-compat property.
  const auto k = des_key_schedule(0xA5A5A5A55A5A5A5AULL);
  const std::uint64_t block = 0x0011223344556677ULL;
  EXPECT_EQ(des_ede_encrypt_block(block, k, k), des_encrypt_block(block, k));
}

// --- byte-stream ciphers ----------------------------------------------------------

// The codecs' one byte-level implementation is encrypt_into / decrypt_inplace
// (what the DES filters run on arena payloads); these wrap it for vectors.
template <typename Cipher>
Bytes encrypt(const Cipher& cipher, const Bytes& plaintext) {
  Bytes out(Cipher::padded_size(plaintext.size()));
  cipher.encrypt_into(plaintext, out.data());
  return out;
}

template <typename Cipher>
Bytes decrypt(const Cipher& cipher, Bytes wire) {
  wire.resize(cipher.decrypt_inplace(wire.data(), wire.size()));
  return wire;
}

TEST(Des64Cipher, RoundTripVariousLengths) {
  const Des64Cipher cipher(0x133457799BBCDFF1ULL);
  util::Rng rng(31);
  std::vector<std::size_t> lengths(265);
  for (std::size_t i = 0; i < lengths.size(); ++i) lengths[i] = i;
  lengths.push_back(1000);
  for (const std::size_t length : lengths) {
    Bytes plaintext(length);
    for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng.next_u64());
    const Bytes ciphertext = encrypt(cipher, plaintext);
    EXPECT_EQ(ciphertext.size() % 8, 0U);
    EXPECT_GT(ciphertext.size(), plaintext.size());  // padding always added
    EXPECT_EQ(decrypt(cipher, ciphertext), plaintext) << "length " << length;
  }
}

TEST(Des64Cipher, CiphertextDiffersFromPlaintext) {
  const Des64Cipher cipher(0x133457799BBCDFF1ULL);
  const Bytes plaintext(64, 0x42);
  EXPECT_NE(encrypt(cipher, plaintext), plaintext);
}

TEST(Des64Cipher, WrongKeyYieldsGarbageNotThrow) {
  const Des64Cipher good(0x133457799BBCDFF1ULL);
  const Des64Cipher bad(0x0123456789ABCDEFULL);
  Bytes plaintext(100);
  for (std::size_t i = 0; i < plaintext.size(); ++i) plaintext[i] = static_cast<std::uint8_t>(i);
  Bytes decrypted;
  EXPECT_NO_THROW(decrypted = decrypt(bad, encrypt(good, plaintext)));
  EXPECT_NE(decrypted, plaintext);  // corruption, observable by checksums
}

TEST(Des64Cipher, DecryptRejectsUnalignedInput) {
  const Des64Cipher des64(1);
  const Des128Cipher des128(1, 2);
  for (std::size_t length = 1; length < 24; ++length) {
    if (length % 8 == 0) continue;
    Bytes bad(length, 0x5A);
    EXPECT_THROW(des64.decrypt_inplace(bad.data(), bad.size()), std::invalid_argument);
    EXPECT_THROW(des128.decrypt_inplace(bad.data(), bad.size()), std::invalid_argument);
    EXPECT_EQ(bad, Bytes(length, 0x5A)) << "rejected before touching the buffer";
  }
}

TEST(Des128Cipher, RoundTrip) {
  const Des128Cipher cipher(0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL);
  util::Rng rng(37);
  for (std::size_t length = 0; length <= 264; ++length) {
    Bytes plaintext(length);
    for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(decrypt(cipher, encrypt(cipher, plaintext)), plaintext) << "length " << length;
  }
}

TEST(Des128Cipher, KeyOrderMatters) {
  const Des128Cipher a(1, 2);
  const Des128Cipher b(2, 1);
  const Bytes plaintext(64, 0x11);
  EXPECT_NE(encrypt(a, plaintext), encrypt(b, plaintext));
}

TEST(Des128Cipher, NotInterchangeableWithDes64) {
  const Des64Cipher des64(0x133457799BBCDFF1ULL);
  const Des128Cipher des128(0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL);
  Bytes plaintext(80, 0x3C);
  EXPECT_NE(decrypt(des64, encrypt(des128, plaintext)), plaintext);
  EXPECT_NE(decrypt(des128, encrypt(des64, plaintext)), plaintext);
}

// Property: ECB determinism — same block, same key, same ciphertext.
TEST(CipherProperty, Deterministic) {
  const Des64Cipher cipher(42);
  const Bytes plaintext{9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(encrypt(cipher, plaintext), encrypt(cipher, plaintext));
}

// --- table-driven fast path vs bit-by-bit reference ---------------------------

TEST(DesTables, FastPathMatchesReferenceOnRandomBlocksAndKeys) {
  util::Rng rng(0xDE5);
  for (int i = 0; i < 200; ++i) {
    const auto schedule = des_key_schedule(rng.next_u64());
    const std::uint64_t block = rng.next_u64();
    EXPECT_EQ(des_encrypt_block(block, schedule),
              des_encrypt_block_reference(block, schedule));
    EXPECT_EQ(des_decrypt_block(block, schedule),
              des_decrypt_block_reference(block, schedule));
  }
}

TEST(DesTables, EdeFastPathMatchesReference) {
  util::Rng rng(0x3DE5);
  for (int i = 0; i < 100; ++i) {
    const auto k1 = des_key_schedule(rng.next_u64());
    const auto k2 = des_key_schedule(rng.next_u64());
    const std::uint64_t block = rng.next_u64();
    EXPECT_EQ(des_ede_encrypt_block(block, k1, k2),
              des_ede_encrypt_block_reference(block, k1, k2));
    EXPECT_EQ(des_ede_decrypt_block(block, k1, k2),
              des_ede_decrypt_block_reference(block, k1, k2));
  }
}

TEST(DesTables, BatchedBlocksMatchScalar) {
  util::Rng rng(0xBA7C);
  const auto k1 = des_key_schedule(rng.next_u64());
  const auto k2 = des_key_schedule(rng.next_u64());
  std::vector<std::uint64_t> blocks(97);
  for (auto& b : blocks) b = rng.next_u64();

  auto single = blocks;
  for (auto& b : single) b = des_encrypt_block(b, k1);
  auto batched = blocks;
  des_encrypt_blocks(batched.data(), batched.size(), k1);
  EXPECT_EQ(batched, single);
  des_decrypt_blocks(batched.data(), batched.size(), k1);
  EXPECT_EQ(batched, blocks);

  auto ede_single = blocks;
  for (auto& b : ede_single) b = des_ede_encrypt_block(b, k1, k2);
  auto ede_batched = blocks;
  des_ede_encrypt_blocks(ede_batched.data(), ede_batched.size(), k1, k2);
  EXPECT_EQ(ede_batched, ede_single);
  des_ede_decrypt_blocks(ede_batched.data(), ede_batched.size(), k1, k2);
  EXPECT_EQ(ede_batched, blocks);
}

TEST(DesTables, SharedKeyScheduleMatchesDirectExpansion) {
  const auto& shared = shared_key_schedule(0x133457799BBCDFF1ULL);
  const auto direct = des_key_schedule(0x133457799BBCDFF1ULL);
  EXPECT_EQ(shared.subkeys, direct.subkeys);
  // Same key → same cached instance.
  EXPECT_EQ(&shared, &shared_key_schedule(0x133457799BBCDFF1ULL));
}

// --- in-place byte APIs vs the bit-by-bit reference -------------------------

/// ECB over big-endian 8-byte blocks with a reference block function.
template <typename BlockFn>
Bytes reference_ecb(const Bytes& input, BlockFn&& block_fn) {
  Bytes out(input.size());
  for (std::size_t offset = 0; offset < input.size(); offset += 8) {
    std::uint64_t block = 0;
    for (std::size_t i = 0; i < 8; ++i) block = (block << 8) | input[offset + i];
    block = block_fn(block);
    for (std::size_t i = 0; i < 8; ++i) {
      out[offset + i] = static_cast<std::uint8_t>(block >> (56 - 8 * i));
    }
  }
  return out;
}

Bytes pkcs7_padded(Bytes plaintext) {
  const std::size_t pad = 8 - plaintext.size() % 8;
  plaintext.insert(plaintext.end(), pad, static_cast<std::uint8_t>(pad));
  return plaintext;
}

TEST(CipherInplace, EncryptIntoMatchesEncrypt) {
  const std::uint64_t key64 = 0x133457799BBCDFF1ULL;
  const std::uint64_t key1 = 0x0123456789ABCDEFULL, key2 = 0xFEDCBA9876543210ULL;
  const Des64Cipher des64(key64);
  const Des128Cipher des128(key1, key2);
  const auto s64 = des_key_schedule(key64);
  const auto s1 = des_key_schedule(key1);
  const auto s2 = des_key_schedule(key2);
  util::Rng rng(99);
  for (std::size_t len : {0U, 1U, 7U, 8U, 9U, 255U, 256U}) {
    Bytes plaintext(len);
    for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng.next_u64());

    EXPECT_EQ(encrypt(des64, plaintext),
              reference_ecb(pkcs7_padded(plaintext),
                            [&](std::uint64_t b) { return des_encrypt_block_reference(b, s64); }))
        << "len " << len;
    EXPECT_EQ(encrypt(des128, plaintext),
              reference_ecb(pkcs7_padded(plaintext),
                            [&](std::uint64_t b) {
                              return des_ede_encrypt_block_reference(b, s1, s2);
                            }))
        << "len " << len;
  }
}

TEST(CipherInplace, DecryptInplaceMatchesDecryptAndStripsPadding) {
  const std::uint64_t key = 0x133457799BBCDFF1ULL;
  const Des64Cipher cipher(key);
  const auto schedule = des_key_schedule(key);
  util::Rng rng(7);
  Bytes plaintext(61);
  for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng.next_u64());
  Bytes wire = encrypt(cipher, plaintext);
  const Bytes reference = reference_ecb(
      wire, [&](std::uint64_t b) { return des_decrypt_block_reference(b, schedule); });
  const std::size_t stripped = cipher.decrypt_inplace(wire.data(), wire.size());
  EXPECT_EQ(wire, reference);  // decrypted in place, padding bytes still there
  EXPECT_EQ(stripped, plaintext.size());
  wire.resize(stripped);
  EXPECT_EQ(wire, plaintext);
}

TEST(CipherInplace, WrongKeyLeavesGarbageUnstripped) {
  const Des64Cipher right(1), wrong(2);
  const auto wrong_schedule = des_key_schedule(2);
  Bytes plaintext(40, 0x5A);
  Bytes wire = encrypt(right, plaintext);
  const Bytes reference = reference_ecb(
      wire, [&](std::uint64_t b) { return des_decrypt_block_reference(b, wrong_schedule); });
  const std::size_t stripped = wrong.decrypt_inplace(wire.data(), wire.size());
  EXPECT_EQ(stripped, wire.size());  // invalid padding: nothing stripped, no throw
  EXPECT_EQ(wire, reference);
  EXPECT_NE(wire, pkcs7_padded(plaintext));
}

TEST(CipherInplace, DecryptInplaceRejectsUnalignedInput) {
  const Des64Cipher cipher(1);
  Bytes bad{1, 2, 3};
  EXPECT_THROW(cipher.decrypt_inplace(bad.data(), bad.size()), std::invalid_argument);
}

}  // namespace
}  // namespace sa::crypto
