#include "des_reference.hpp"

#include "crypto/des_fips.hpp"

namespace sa::crypto {

namespace {

using namespace fips;

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

}  // namespace

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

}  // namespace sa::crypto
