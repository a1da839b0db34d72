#include "crypto/des.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace sa::crypto {

namespace {

// FIPS 46-3 tables. Entries are 1-based bit positions counted from the MSB of
// the input word, as the standard writes them.

constexpr std::uint8_t kIP[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9,  1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7};

constexpr std::uint8_t kFP[64] = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};

constexpr std::uint8_t kE[48] = {32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,
                                 8,  9,  10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
                                 16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
                                 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};

constexpr std::uint8_t kP[32] = {16, 7,  20, 21, 29, 12, 28, 17, 1,  15, 23,
                                 26, 5,  18, 31, 10, 2,  8,  24, 14, 32, 27,
                                 3,  9,  19, 13, 30, 6,  22, 11, 4,  25};

constexpr std::uint8_t kPC1[56] = {57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34, 26, 18,
                                   10, 2,  59, 51, 43, 35, 27, 19, 11, 3,  60, 52, 44, 36,
                                   63, 55, 47, 39, 31, 23, 15, 7,  62, 54, 46, 38, 30, 22,
                                   14, 6,  61, 53, 45, 37, 29, 21, 13, 5,  28, 20, 12, 4};

constexpr std::uint8_t kPC2[48] = {14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10,
                                   23, 19, 12, 4,  26, 8,  16, 7,  27, 20, 13, 2,
                                   41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
                                   44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

constexpr std::uint8_t kShifts[16] = {1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1};

constexpr std::uint8_t kSBox[8][64] = {
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6, 1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8, 6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9, 2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3, 12},
    {13, 2,  8, 4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4, 1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11}};

/// Applies a 1-based-from-MSB permutation table: output bit i (MSB-first)
/// takes input bit table[i] of an `in_width`-bit word.
template <std::size_t OutWidth, std::size_t TableSize>
std::uint64_t permute(std::uint64_t input, std::size_t in_width,
                      const std::uint8_t (&table)[TableSize]) {
  static_assert(OutWidth == TableSize);
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < TableSize; ++i) {
    const std::uint64_t bit = (input >> (in_width - table[i])) & 1ULL;
    out = (out << 1) | bit;
  }
  return out;
}

std::uint32_t rotate_left28(std::uint32_t value, int count) {
  return ((value << count) | (value >> (28 - count))) & 0x0FFFFFFFU;
}

// --- bit-by-bit reference (the seed implementation, kept verbatim) ------------

std::uint32_t feistel_reference(std::uint32_t right, std::uint64_t subkey) {
  const std::uint64_t expanded = permute<48>(right, 32, kE) ^ subkey;
  std::uint32_t substituted = 0;
  for (int box = 0; box < 8; ++box) {
    const std::uint32_t chunk =
        static_cast<std::uint32_t>((expanded >> (42 - 6 * box)) & 0x3FU);
    // Row = outer bits, column = middle four bits.
    const std::uint32_t row = ((chunk & 0x20U) >> 4) | (chunk & 1U);
    const std::uint32_t col = (chunk >> 1) & 0xFU;
    substituted = (substituted << 4) | kSBox[box][row * 16 + col];
  }
  return static_cast<std::uint32_t>(permute<32>(substituted, 32, kP));
}

std::uint64_t des_rounds_reference(std::uint64_t block, const DesKeySchedule& schedule,
                                   bool decrypt) {
  const std::uint64_t permuted = permute<64>(block, 64, kIP);
  std::uint32_t left = static_cast<std::uint32_t>(permuted >> 32);
  std::uint32_t right = static_cast<std::uint32_t>(permuted & 0xFFFFFFFFULL);
  for (int round = 0; round < 16; ++round) {
    const std::uint64_t subkey = schedule.subkeys[decrypt ? 15 - round : round];
    const std::uint32_t next_right = left ^ feistel_reference(right, subkey);
    left = right;
    right = next_right;
  }
  // Pre-output block is R16 || L16 (the final swap).
  const std::uint64_t preoutput = (static_cast<std::uint64_t>(right) << 32) | left;
  return permute<64>(preoutput, 64, kFP);
}

// --- table-driven fast path ---------------------------------------------------

// Combined SP-boxes: sp[b][v] is the P-permuted contribution of S-box b
// producing output nibble b from 6-bit input v. The Feistel function then is
// eight table lookups XORed together — no per-bit work. IP and FP become
// per-input-byte lookups (each input byte contributes a disjoint set of
// output bits, so OR of 8 lookups equals the full 64-bit permutation). All
// derived from the FIPS tables above at first use, once per process.
struct DesTables {
  std::uint32_t sp[8][64];
  std::uint64_t ip[8][256];
  std::uint64_t fp[8][256];
};

DesTables build_tables() {
  DesTables t;
  for (int box = 0; box < 8; ++box) {
    for (std::uint32_t v = 0; v < 64; ++v) {
      const std::uint32_t row = ((v & 0x20U) >> 4) | (v & 1U);
      const std::uint32_t col = (v >> 1) & 0xFU;
      const std::uint32_t nibble = kSBox[box][row * 16 + col];
      const std::uint32_t placed = nibble << (28 - 4 * box);
      t.sp[box][v] = static_cast<std::uint32_t>(permute<32>(placed, 32, kP));
    }
  }
  for (int byte = 0; byte < 8; ++byte) {
    for (std::uint32_t v = 0; v < 256; ++v) {
      const std::uint64_t word = static_cast<std::uint64_t>(v) << (56 - 8 * byte);
      t.ip[byte][v] = permute<64>(word, 64, kIP);
      t.fp[byte][v] = permute<64>(word, 64, kFP);
    }
  }
  return t;
}

const DesTables& tables() {
  static const DesTables t = build_tables();
  return t;
}

inline std::uint64_t apply_byte_tables(const std::uint64_t (&tab)[8][256], std::uint64_t x) {
  return tab[0][(x >> 56) & 0xFF] | tab[1][(x >> 48) & 0xFF] | tab[2][(x >> 40) & 0xFF] |
         tab[3][(x >> 32) & 0xFF] | tab[4][(x >> 24) & 0xFF] | tab[5][(x >> 16) & 0xFF] |
         tab[6][(x >> 8) & 0xFF] | tab[7][x & 0xFF];
}

inline std::uint32_t feistel_fast(const DesTables& t, std::uint32_t right, std::uint64_t subkey) {
  // E-expansion by shifting: X holds R's 32 bits shifted up one with the two
  // wraparound bits (bit 32 above, bit 1 below); each S-box's 6-bit input is
  // then a contiguous window (X >> (28 - 4*box)) & 0x3F.
  const std::uint64_t x = (static_cast<std::uint64_t>(right & 1U) << 33) |
                          (static_cast<std::uint64_t>(right) << 1) | (right >> 31);
  std::uint32_t f = 0;
  f ^= t.sp[0][((x >> 28) ^ (subkey >> 42)) & 0x3F];
  f ^= t.sp[1][((x >> 24) ^ (subkey >> 36)) & 0x3F];
  f ^= t.sp[2][((x >> 20) ^ (subkey >> 30)) & 0x3F];
  f ^= t.sp[3][((x >> 16) ^ (subkey >> 24)) & 0x3F];
  f ^= t.sp[4][((x >> 12) ^ (subkey >> 18)) & 0x3F];
  f ^= t.sp[5][((x >> 8) ^ (subkey >> 12)) & 0x3F];
  f ^= t.sp[6][((x >> 4) ^ (subkey >> 6)) & 0x3F];
  f ^= t.sp[7][(x ^ subkey) & 0x3F];
  return f;
}

template <bool Decrypt>
inline std::uint64_t des_rounds_fast(const DesTables& t, std::uint64_t block,
                                     const DesKeySchedule& schedule) {
  const std::uint64_t permuted = apply_byte_tables(t.ip, block);
  std::uint32_t left = static_cast<std::uint32_t>(permuted >> 32);
  std::uint32_t right = static_cast<std::uint32_t>(permuted);
  for (int round = 0; round < 16; ++round) {
    const std::uint64_t subkey = schedule.subkeys[Decrypt ? 15 - round : round];
    const std::uint32_t next_right = left ^ feistel_fast(t, right, subkey);
    left = right;
    right = next_right;
  }
  const std::uint64_t preoutput = (static_cast<std::uint64_t>(right) << 32) | left;
  return apply_byte_tables(t.fp, preoutput);
}

// Two independent ECB blocks run through the rounds together: each round's
// eight SP-table loads are latency-bound on a single dependent chain, so a
// second in-flight chain nearly doubles block throughput on one core.
template <bool Decrypt>
inline void des_rounds_fast_x2(const DesTables& t, std::uint64_t& a, std::uint64_t& b,
                               const DesKeySchedule& schedule) {
  const std::uint64_t pa = apply_byte_tables(t.ip, a);
  const std::uint64_t pb = apply_byte_tables(t.ip, b);
  std::uint32_t la = static_cast<std::uint32_t>(pa >> 32);
  std::uint32_t ra = static_cast<std::uint32_t>(pa);
  std::uint32_t lb = static_cast<std::uint32_t>(pb >> 32);
  std::uint32_t rb = static_cast<std::uint32_t>(pb);
  for (int round = 0; round < 16; ++round) {
    const std::uint64_t subkey = schedule.subkeys[Decrypt ? 15 - round : round];
    const std::uint32_t na = la ^ feistel_fast(t, ra, subkey);
    const std::uint32_t nb = lb ^ feistel_fast(t, rb, subkey);
    la = ra;
    ra = na;
    lb = rb;
    rb = nb;
  }
  a = apply_byte_tables(t.fp, (static_cast<std::uint64_t>(ra) << 32) | la);
  b = apply_byte_tables(t.fp, (static_cast<std::uint64_t>(rb) << 32) | lb);
}

template <bool Decrypt>
void des_blocks_fast(std::uint64_t* blocks, std::size_t count, const DesKeySchedule& schedule) {
  const DesTables& t = tables();
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    des_rounds_fast_x2<Decrypt>(t, blocks[i], blocks[i + 1], schedule);
  }
  if (i < count) blocks[i] = des_rounds_fast<Decrypt>(t, blocks[i], schedule);
}

}  // namespace

DesKeySchedule des_key_schedule(std::uint64_t key) {
  DesKeySchedule schedule;
  const std::uint64_t permuted = permute<56>(key, 64, kPC1);
  std::uint32_t c = static_cast<std::uint32_t>(permuted >> 28) & 0x0FFFFFFFU;
  std::uint32_t d = static_cast<std::uint32_t>(permuted) & 0x0FFFFFFFU;
  for (int round = 0; round < 16; ++round) {
    c = rotate_left28(c, kShifts[round]);
    d = rotate_left28(d, kShifts[round]);
    const std::uint64_t cd = (static_cast<std::uint64_t>(c) << 28) | d;
    schedule.subkeys[round] = permute<48>(cd, 56, kPC2);
  }
  return schedule;
}

const DesKeySchedule& shared_key_schedule(std::uint64_t key) {
  static std::mutex mutex;
  static std::map<std::uint64_t, std::unique_ptr<DesKeySchedule>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto& entry = cache[key];
  if (!entry) entry = std::make_unique<DesKeySchedule>(des_key_schedule(key));
  return *entry;
}

std::uint64_t des_encrypt_block(std::uint64_t block, const DesKeySchedule& schedule) {
  return des_rounds_fast<false>(tables(), block, schedule);
}

std::uint64_t des_decrypt_block(std::uint64_t block, const DesKeySchedule& schedule) {
  return des_rounds_fast<true>(tables(), block, schedule);
}

std::uint64_t des_ede_encrypt_block(std::uint64_t block, const DesKeySchedule& k1,
                                    const DesKeySchedule& k2) {
  return des_encrypt_block(des_decrypt_block(des_encrypt_block(block, k1), k2), k1);
}

std::uint64_t des_ede_decrypt_block(std::uint64_t block, const DesKeySchedule& k1,
                                    const DesKeySchedule& k2) {
  return des_decrypt_block(des_encrypt_block(des_decrypt_block(block, k1), k2), k1);
}

void des_encrypt_blocks(std::uint64_t* blocks, std::size_t count,
                        const DesKeySchedule& schedule) {
  des_blocks_fast<false>(blocks, count, schedule);
}

void des_decrypt_blocks(std::uint64_t* blocks, std::size_t count,
                        const DesKeySchedule& schedule) {
  des_blocks_fast<true>(blocks, count, schedule);
}

void des_ede_encrypt_blocks(std::uint64_t* blocks, std::size_t count, const DesKeySchedule& k1,
                            const DesKeySchedule& k2) {
  des_blocks_fast<false>(blocks, count, k1);
  des_blocks_fast<true>(blocks, count, k2);
  des_blocks_fast<false>(blocks, count, k1);
}

void des_ede_decrypt_blocks(std::uint64_t* blocks, std::size_t count, const DesKeySchedule& k1,
                            const DesKeySchedule& k2) {
  des_blocks_fast<true>(blocks, count, k1);
  des_blocks_fast<false>(blocks, count, k2);
  des_blocks_fast<true>(blocks, count, k1);
}

std::uint64_t des_encrypt_block_reference(std::uint64_t block, const DesKeySchedule& schedule) {
  return des_rounds_reference(block, schedule, /*decrypt=*/false);
}

std::uint64_t des_decrypt_block_reference(std::uint64_t block, const DesKeySchedule& schedule) {
  return des_rounds_reference(block, schedule, /*decrypt=*/true);
}

std::uint64_t des_ede_encrypt_block_reference(std::uint64_t block, const DesKeySchedule& k1,
                                              const DesKeySchedule& k2) {
  return des_encrypt_block_reference(
      des_decrypt_block_reference(des_encrypt_block_reference(block, k1), k2), k1);
}

std::uint64_t des_ede_decrypt_block_reference(std::uint64_t block, const DesKeySchedule& k1,
                                              const DesKeySchedule& k2) {
  return des_decrypt_block_reference(
      des_encrypt_block_reference(des_decrypt_block_reference(block, k1), k2), k1);
}

namespace {

std::uint64_t load_block(const std::uint8_t* bytes) {
  std::uint64_t block = 0;
  for (std::size_t i = 0; i < 8; ++i) block = (block << 8) | bytes[i];
  return block;
}

void store_block(std::uint8_t* bytes, std::uint64_t block) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(block >> (56 - 8 * i));
  }
}

/// Writes `src` plus PKCS#7 padding into `dst` (padded_size(src) bytes).
void pad_pkcs7_into(std::span<const std::uint8_t> src, std::uint8_t* dst) {
  if (!src.empty()) std::memcpy(dst, src.data(), src.size());
  const std::size_t pad = 8 - src.size() % 8;
  std::memset(dst + src.size(), static_cast<int>(pad), pad);
}

/// Valid-padding length of `[data, data+n)`, or `n` when padding is invalid —
/// the garbage-tolerant contract (see Des64Cipher::decrypt_inplace).
std::size_t stripped_size(const std::uint8_t* data, std::size_t n) {
  if (n == 0 || n % 8 != 0) return n;
  const std::uint8_t pad = data[n - 1];
  if (pad == 0 || pad > 8 || pad > n) return n;
  for (std::size_t i = n - pad; i < n; ++i) {
    if (data[i] != pad) return n;
  }
  return n - pad;
}

void require_block_aligned(std::size_t n) {
  if (n % 8 != 0) {
    throw std::invalid_argument("ciphertext length must be a multiple of 8");
  }
}

/// Runs a batched block function over a byte buffer in place (big-endian
/// block order, as the byte-stream format prescribes).
template <typename BlocksFn>
void crypt_bytes_inplace(std::uint8_t* data, std::size_t n, BlocksFn&& fn) {
  require_block_aligned(n);
  // Work in a small stack batch to keep block loads/stores and the cipher
  // rounds cache-friendly without allocating.
  constexpr std::size_t kBatch = 64;
  std::uint64_t blocks[kBatch];
  std::size_t offset = 0;
  while (offset < n) {
    const std::size_t take = std::min(kBatch, (n - offset) / 8);
    for (std::size_t i = 0; i < take; ++i) blocks[i] = load_block(data + offset + 8 * i);
    fn(blocks, take);
    for (std::size_t i = 0; i < take; ++i) store_block(data + offset + 8 * i, blocks[i]);
    offset += take * 8;
  }
}

}  // namespace

void Des64Cipher::encrypt_into(std::span<const std::uint8_t> src, std::uint8_t* dst) const {
  pad_pkcs7_into(src, dst);
  crypt_bytes_inplace(dst, padded_size(src.size()), [this](std::uint64_t* blocks, std::size_t n) {
    des_encrypt_blocks(blocks, n, schedule_);
  });
}

std::size_t Des64Cipher::decrypt_inplace(std::uint8_t* data, std::size_t n) const {
  crypt_bytes_inplace(data, n, [this](std::uint64_t* blocks, std::size_t count) {
    des_decrypt_blocks(blocks, count, schedule_);
  });
  return stripped_size(data, n);
}

void Des128Cipher::encrypt_into(std::span<const std::uint8_t> src, std::uint8_t* dst) const {
  pad_pkcs7_into(src, dst);
  crypt_bytes_inplace(dst, padded_size(src.size()), [this](std::uint64_t* blocks, std::size_t n) {
    des_ede_encrypt_blocks(blocks, n, k1_, k2_);
  });
}

std::size_t Des128Cipher::decrypt_inplace(std::uint8_t* data, std::size_t n) const {
  crypt_bytes_inplace(data, n, [this](std::uint64_t* blocks, std::size_t count) {
    des_ede_decrypt_blocks(blocks, count, k1_, k2_);
  });
  return stripped_size(data, n);
}

}  // namespace sa::crypto
