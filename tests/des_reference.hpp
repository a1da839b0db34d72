// Bit-by-bit DES reference: the original straight-from-the-standard
// permutation walk over the FIPS 46-3 tables, kept outside the library as
// ground truth. crypto_test checks the library's table-driven DES against it,
// and bench_dataplane runs it as the honest "seed path" in throughput
// comparisons.
#pragma once

#include <cstdint>

#include "crypto/des.hpp"

namespace sa::crypto {

std::uint64_t des_encrypt_block_reference(std::uint64_t block, const DesKeySchedule& schedule);
std::uint64_t des_decrypt_block_reference(std::uint64_t block, const DesKeySchedule& schedule);
std::uint64_t des_ede_encrypt_block_reference(std::uint64_t block, const DesKeySchedule& k1,
                                              const DesKeySchedule& k2);
std::uint64_t des_ede_decrypt_block_reference(std::uint64_t block, const DesKeySchedule& k1,
                                              const DesKeySchedule& k2);

}  // namespace sa::crypto
