#include "crypto/des.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "crypto/des_fips.hpp"

namespace sa::crypto {

namespace {

using namespace fips;

std::uint32_t rotate_left28(std::uint32_t value, int count) {
  return ((value << count) | (value >> (28 - count))) & 0x0FFFFFFFU;
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
