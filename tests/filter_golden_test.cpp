// Golden digests for every concrete filter. A fixed seeded packet stream goes
// through each filter one packet at a time (run_filter), and the outputs must
// reproduce the recorded digest — FNV-1a over every output's sequence, tag
// stack, payload and checksum, in order — together with the filter's exact
// FilterStats. The values were recorded from the per-packet filter interface
// and pin every filter's behaviour independently of how it is invoked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "components/fec.hpp"
#include "components/filter.hpp"
#include "components/rle.hpp"
#include "crypto/codec_filters.hpp"
#include "filter_harness.hpp"
#include "util/rng.hpp"

namespace sa::components {
namespace {

struct Fnv {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void bytes(const std::uint8_t* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) hash = (hash ^ data[i]) * 0x100000001b3ULL;
  }
  void u64(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      const auto byte = static_cast<std::uint8_t>(value >> shift);
      bytes(&byte, 1);
    }
  }
  void text(std::string_view s) {
    u64(s.size());
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
};

std::uint64_t digest(const std::vector<Packet>& outputs) {
  Fnv fnv;
  for (const Packet& packet : outputs) {
    fnv.u64(packet.sequence);
    fnv.u64(packet.encoding_stack.size());
    for (std::size_t i = 0; i < packet.encoding_stack.size(); ++i) {
      fnv.text(packet.encoding_stack[i]);
    }
    fnv.u64(packet.payload.size());
    fnv.bytes(packet.payload.data(), packet.payload.size());
    fnv.u64(packet.plaintext_checksum);
  }
  return fnv.hash;
}

std::vector<Packet> run_stream(Filter& filter, const std::vector<Packet>& inputs) {
  std::vector<Packet> outputs;
  for (const Packet& in : inputs) {
    for (Packet& out : run_filter(filter, in)) outputs.push_back(std::move(out));
  }
  return outputs;
}

struct Golden {
  std::size_t outputs;
  std::uint64_t digest;
  std::uint64_t processed;
  std::uint64_t bypassed;
  std::uint64_t dropped;

  bool operator==(const Golden&) const = default;
};

void expect_golden(Filter& filter, const std::vector<Packet>& inputs, const Golden& golden) {
  const std::vector<Packet> outputs = run_stream(filter, inputs);
  const Golden observed{outputs.size(), digest(outputs), filter.stats().processed,
                        filter.stats().bypassed, filter.stats().dropped};
  EXPECT_EQ(observed, golden) << filter.name() << " observed {" << observed.outputs << ", 0x"
                             << std::hex << observed.digest << "ULL, " << std::dec
                             << observed.processed << ", " << observed.bypassed << ", "
                             << observed.dropped << "}";
}

/// 24 plaintext packets: lengths around the 8-byte cipher block and the
/// 255-byte RLE run limit; even packets run-structured, odd ones random.
std::vector<Packet> plain_stream() {
  constexpr std::size_t kLengths[] = {0,  1,  7,   8,   9,   15,  16,  17,
                                      31, 64, 100, 255, 256, 257, 300, 513,
                                      3,  40, 48,  80,  120, 200, 999, 12};
  util::Rng rng(2004);
  std::vector<Packet> stream;
  for (std::size_t i = 0; i < std::size(kLengths); ++i) {
    Payload payload;
    while (payload.size() < kLengths[i]) {
      const auto byte = static_cast<std::uint8_t>(rng.next_u64());
      const std::size_t run = i % 2 == 0 ? 1 + rng.next_below(300) : 1;
      payload.insert(payload.end(), std::min(run, kLengths[i] - payload.size()), byte);
    }
    stream.push_back(Packet::make(1, i, std::move(payload)));
  }
  return stream;
}

// Digests shared by several filters: a decoder that decrypts restores the
// plain stream exactly, and one that bypasses forwards the ciphertext.
constexpr std::uint64_t kPlainDigest = 0x5e42dfd7c9cb1e48ULL;
constexpr std::uint64_t kDes64Digest = 0x2be5628227c46e46ULL;
constexpr std::uint64_t kDes128Digest = 0x7821a804cc1a7d14ULL;

Packet tagged(std::uint64_t sequence, Payload payload, std::string_view tag) {
  Packet packet = Packet::make(1, sequence, std::move(payload));
  packet.encoding_stack.push_back(tag);
  return packet;
}

bool is_fec_data(const Packet& packet, std::uint64_t sequence) {
  return packet.sequence == sequence && !packet.encoding_stack.empty() &&
         packet.encoding_stack.back().starts_with("fec:");
}

bool is_fec_parity(const Packet& packet, std::string_view group_prefix) {
  return !packet.encoding_stack.empty() && packet.encoding_stack.back().starts_with(group_prefix);
}

TEST(FilterGolden, PassThrough) {
  PassThroughFilter filter("pass");
  expect_golden(filter, plain_stream(), {24, kPlainDigest, 24, 0, 0});
}

TEST(FilterGolden, Tag) {
  TagFilter filter("tag", "x");
  expect_golden(filter, plain_stream(), {24, 0xd89c432081d505a4ULL, 24, 0, 0});
}

TEST(FilterGolden, Untag) {
  // Top tag "x" pops; "y" on top, "x" under "y", and untagged all bypass.
  std::vector<Packet> inputs = plain_stream();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (i % 4 == 0) inputs[i].encoding_stack.push_back("x");
    if (i % 4 == 1) inputs[i].encoding_stack.push_back("y");
    if (i % 4 == 2) {
      inputs[i].encoding_stack.push_back("x");
      inputs[i].encoding_stack.push_back("y");
    }
  }
  UntagFilter filter("untag", "x");
  expect_golden(filter, inputs, {24, 0x2acca0b423f51dd2ULL, 6, 18, 0});
}

TEST(FilterGolden, RleCompress) {
  RleCompressFilter filter("rle-c");
  expect_golden(filter, plain_stream(), {24, 0xd9a65b76de0a37fbULL, 24, 0, 0});
}

TEST(FilterGolden, RleDecompress) {
  // Compressed stream, one untagged packet (bypass), and two malformed
  // tagged payloads (odd length, zero run count) that are dropped.
  RleCompressFilter compress("rle-c");
  std::vector<Packet> inputs = run_stream(compress, plain_stream());
  inputs.push_back(Packet::make(1, 100, Payload{5, 5, 5}));
  inputs.push_back(tagged(101, Payload{1, 7, 9}, kTagRle));
  inputs.push_back(tagged(102, Payload{0, 42}, kTagRle));
  RleDecompressFilter filter("rle-d");
  expect_golden(filter, inputs, {25, 0xb0ae5ef7fdc5c209ULL, 24, 1, 2});
}

TEST(FilterGolden, FecEncoder) {
  XorFecEncoderFilter filter("fec-e", 4);
  expect_golden(filter, plain_stream(), {30, 0x76a42d995244ba2eULL, 24, 0, 0});
}

TEST(FilterGolden, FecDecoderUnderLossAndMalformedParity) {
  // Six groups of four. Group 0 loses seq 2 (repaired), group 1 is complete,
  // group 2 loses seqs 9 and 10 (unrepairable), group 3 loses its parity,
  // group 4 loses seq 17 and its parity's length field is corrupted (refused),
  // group 5 loses seq 20 (repaired). Then a truncated parity (dropped), an
  // untagged packet and a foreign-tagged packet (both bypassed).
  XorFecEncoderFilter encoder("fec-e", 4);
  std::vector<Packet> inputs;
  for (Packet& wire : run_stream(encoder, plain_stream())) {
    if (is_fec_data(wire, 2) || is_fec_data(wire, 9) || is_fec_data(wire, 10) ||
        is_fec_data(wire, 17) || is_fec_data(wire, 20) || is_fec_parity(wire, "fec-parity:3:")) {
      continue;
    }
    if (is_fec_parity(wire, "fec-parity:4:")) {
      for (std::size_t i = 8; i < 12; ++i) wire.payload[i] = 0xff;
    }
    inputs.push_back(std::move(wire));
  }
  inputs.push_back(tagged(200, Payload{1, 2, 3, 4}, "fec-parity:99:4"));
  inputs.push_back(Packet::make(1, 201, Payload{6, 6}));
  inputs.push_back(tagged(202, Payload{7, 7}, crypto::kTagDes64));
  XorFecDecoderFilter filter("fec-d");
  expect_golden(filter, inputs, {23, 0x8ffe5e9f24df36c6ULL, 24, 2, 1});
  EXPECT_EQ(filter.recovered(), 2U);
}

TEST(FilterGolden, DesEncoderE1) {
  const FilterPtr e1 = crypto::make_encoder_e1();
  expect_golden(*e1, plain_stream(), {24, kDes64Digest, 24, 0, 0});
}

TEST(FilterGolden, DesEncoderE2) {
  const FilterPtr e2 = crypto::make_encoder_e2();
  expect_golden(*e2, plain_stream(), {24, kDes128Digest, 24, 0, 0});
}

// D1 and D4 accept des64 only, D3 and D5 des128 only, D2 both.
FilterPtr paper_decoder(int index) {
  const bool accept64 = index == 1 || index == 2 || index == 4;
  const bool accept128 = index == 2 || index == 3 || index == 5;
  return crypto::make_decoder("D" + std::to_string(index), accept64, accept128);
}

TEST(FilterGolden, DesDecodersOnDes64) {
  const FilterPtr e1 = crypto::make_encoder_e1();
  const std::vector<Packet> wire = run_stream(*e1, plain_stream());
  const Golden accepts{24, kPlainDigest, 24, 0, 0};
  const Golden bypasses{24, kDes64Digest, 0, 24, 0};
  for (int d = 1; d <= 5; ++d) {
    const FilterPtr decoder = paper_decoder(d);
    expect_golden(*decoder, wire, d == 3 || d == 5 ? bypasses : accepts);
  }
}

TEST(FilterGolden, DesDecodersOnDes128) {
  const FilterPtr e2 = crypto::make_encoder_e2();
  const std::vector<Packet> wire = run_stream(*e2, plain_stream());
  const Golden accepts{24, kPlainDigest, 24, 0, 0};
  const Golden bypasses{24, kDes128Digest, 0, 24, 0};
  for (int d = 1; d <= 5; ++d) {
    const FilterPtr decoder = paper_decoder(d);
    expect_golden(*decoder, wire, d == 1 || d == 4 ? bypasses : accepts);
  }
}

}  // namespace
}  // namespace sa::components
