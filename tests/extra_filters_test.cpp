#include <gtest/gtest.h>

#include <optional>

#include "components/fec.hpp"
#include "components/filter_chain.hpp"
#include "components/rle.hpp"
#include "crypto/codec_filters.hpp"
#include "filter_harness.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace sa::components {
namespace {

Packet make_packet(std::uint64_t seq, Payload payload) {
  return Packet::make(1, seq, std::move(payload));
}

Payload runs_payload(std::size_t size) {
  Payload payload;
  std::uint8_t byte = 0;
  while (payload.size() < size) {
    payload.insert(payload.end(), std::min<std::size_t>(9, size - payload.size()), byte);
    ++byte;
  }
  return payload;
}

// --- RLE ----------------------------------------------------------------------

/// The RLE codec as the compress filter applies it.
Payload rle_compress(const Payload& input) {
  RleCompressFilter compress("rle-c");
  return run_one(compress, make_packet(0, input)).payload;
}

/// The RLE codec as the decompress filter applies it to an "rle"-tagged
/// payload; nullopt when the filter drops it as malformed.
std::optional<Payload> rle_decompress(const Payload& input) {
  RleDecompressFilter decompress("rle-d");
  Packet packet = make_packet(0, input);
  packet.encoding_stack.push_back(kTagRle);
  auto out = run_filter(decompress, std::move(packet));
  if (out.empty()) return std::nullopt;
  EXPECT_TRUE(out[0].encoding_stack.empty());
  return std::move(out[0].payload);
}

TEST(Rle, EncodeDecodeRoundTrip) {
  util::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    Payload payload(rng.next_below(300));
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next_below(4));
    const auto decoded = rle_decompress(rle_compress(payload));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, payload);
  }
}

TEST(Rle, EmptyPayload) {
  EXPECT_TRUE(rle_compress({}).empty());
  EXPECT_EQ(rle_decompress(Payload{}), Payload{});
}

TEST(Rle, LongRunsSplitAt255) {
  const Payload payload(700, 0x42);
  const Payload encoded = rle_compress(payload);
  EXPECT_EQ(encoded.size(), 6U);  // 255 + 255 + 190
  EXPECT_EQ(*rle_decompress(encoded), payload);
}

TEST(Rle, CompressesRunsExpandsNoise) {
  const Payload runs = runs_payload(256);
  EXPECT_LT(rle_compress(runs).size(), runs.size());
  util::Rng rng(9);
  Payload noise(256);
  for (auto& byte : noise) byte = static_cast<std::uint8_t>(rng.next_u64());
  EXPECT_GT(rle_compress(noise).size(), noise.size());  // ~2x
}

TEST(Rle, DecodeRejectsMalformed) {
  EXPECT_FALSE(rle_decompress(Payload{1}).has_value());      // odd length
  EXPECT_FALSE(rle_decompress(Payload{0, 42}).has_value());  // zero count
}

TEST(Rle, FiltersRoundTripAndTrackRatio) {
  RleCompressFilter compress("rle-c");
  RleDecompressFilter decompress("rle-d");
  auto packet = make_packet(0, runs_payload(200));
  auto compressed = run_one(compress, packet);
  EXPECT_EQ(compressed.encoding_stack, (std::vector<std::string>{kTagRle}));
  EXPECT_LT(compress.ratio(), 1.0);
  const auto restored = run_one(decompress, std::move(compressed));
  EXPECT_TRUE(restored.intact());
}

TEST(Rle, DecompressorBypassesUntaggedPackets) {
  RleDecompressFilter decompress("rle-d");
  const auto out = run_one(decompress, make_packet(0, {1, 2, 3}));
  EXPECT_TRUE(out.intact());
  EXPECT_EQ(decompress.stats().bypassed, 1U);
}

TEST(Rle, ComposesUnderEncryption) {
  // [RLE, E1] on the sender, [D1, un-RLE] on the receiver.
  RleCompressFilter compress("rle-c");
  crypto::DesEncoderFilter e1("E1", crypto::Scheme::Des64);
  crypto::DesDecoderFilter d1("D1", true, false);
  RleDecompressFilter decompress("rle-d");
  auto packet = make_packet(7, runs_payload(128));
  auto wire = run_one(e1, run_one(compress, packet));
  const auto restored = run_one(decompress, run_one(d1, std::move(wire)));
  EXPECT_TRUE(restored.intact());
  EXPECT_EQ(restored.sequence, 7U);
}

// --- FEC ----------------------------------------------------------------------

TEST(Fec, ParityEmittedPerGroup) {
  XorFecEncoderFilter encoder("fec-e", 4);
  std::size_t outputs = 0;
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    outputs += run_filter(encoder, make_packet(seq, {1, 2, 3})).size();
  }
  EXPECT_EQ(outputs, 10U);  // 8 data + 2 parity
  EXPECT_EQ(encoder.parity_emitted(), 2U);
}

TEST(Fec, LosslessPathDeliversDataUnchanged) {
  XorFecEncoderFilter encoder("fec-e", 4);
  XorFecDecoderFilter decoder("fec-d");
  std::vector<Packet> delivered;
  for (std::uint64_t seq = 0; seq < 12; ++seq) {
    for (Packet& wire : run_filter(encoder, make_packet(seq, runs_payload(50)))) {
      for (Packet& out : run_filter(decoder, std::move(wire))) {
        delivered.push_back(std::move(out));
      }
    }
  }
  ASSERT_EQ(delivered.size(), 12U);  // parity absorbed
  for (std::uint64_t seq = 0; seq < 12; ++seq) {
    EXPECT_EQ(delivered[seq].sequence, seq);
    EXPECT_TRUE(delivered[seq].intact());
  }
  EXPECT_EQ(decoder.recovered(), 0U);
}

TEST(Fec, RecoversSingleLossPerGroup) {
  XorFecEncoderFilter encoder("fec-e", 4);
  XorFecDecoderFilter decoder("fec-d");
  std::vector<Packet> delivered;
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    Payload payload(40 + seq * 3);  // distinct lengths exercise length XOR
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(seq * 31 + i);
    }
    for (Packet& wire : run_filter(encoder, make_packet(seq, std::move(payload)))) {
      if (wire.sequence == 2 && !wire.encoding_stack.empty() &&
          wire.encoding_stack.back().starts_with("fec:")) {
        continue;  // drop data packet 2 on the wire
      }
      for (Packet& out : run_filter(decoder, std::move(wire))) {
        delivered.push_back(std::move(out));
      }
    }
  }
  ASSERT_EQ(delivered.size(), 4U);
  EXPECT_EQ(decoder.recovered(), 1U);
  // The reconstructed packet is bit-identical: intact checksum, right seq.
  bool found = false;
  for (const Packet& packet : delivered) {
    if (packet.sequence == 2) {
      EXPECT_TRUE(packet.intact());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Fec, CannotRecoverTwoLossesPerGroup) {
  XorFecEncoderFilter encoder("fec-e", 4);
  XorFecDecoderFilter decoder("fec-d");
  std::size_t delivered = 0;
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    for (Packet& wire : run_filter(encoder, make_packet(seq, {9, 9, 9}))) {
      if (wire.sequence == 1 || wire.sequence == 2) {
        if (!wire.encoding_stack.empty() && wire.encoding_stack.back().starts_with("fec:")) {
          continue;  // drop two data packets
        }
      }
      delivered += run_filter(decoder, std::move(wire)).size();
    }
  }
  EXPECT_EQ(delivered, 2U);
  EXPECT_EQ(decoder.recovered(), 0U);
}

TEST(Fec, ParityLossIsHarmlessWhenDataComplete) {
  XorFecEncoderFilter encoder("fec-e", 3);
  XorFecDecoderFilter decoder("fec-d");
  std::size_t delivered = 0;
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    for (Packet& wire : run_filter(encoder, make_packet(seq, {5}))) {
      if (!wire.encoding_stack.empty() &&
          wire.encoding_stack.back().starts_with("fec-parity:")) {
        continue;  // all parity lost
      }
      delivered += run_filter(decoder, std::move(wire)).size();
    }
  }
  EXPECT_EQ(delivered, 6U);
}

TEST(Fec, DecoderBypassesUntaggedTraffic) {
  XorFecDecoderFilter decoder("fec-d");
  const auto out = run_filter(decoder, make_packet(0, {1, 2}));
  ASSERT_EQ(out.size(), 1U);
  EXPECT_TRUE(out[0].intact());
  EXPECT_EQ(decoder.stats().bypassed, 1U);
}

TEST(Fec, ComposesUnderEncryption) {
  // Sender [FEC, E1]; receiver [D1, FEC-d]. Drop one encrypted data packet;
  // the decoder reconstructs the plaintext after decryption.
  sim::Simulator sim;
  FilterChain sender(sim, "sender");
  FilterChain receiver(sim, "receiver");
  sender.append_filter(std::make_shared<XorFecEncoderFilter>("fec-e", 4));
  sender.append_filter(crypto::make_encoder_e1());
  receiver.append_filter(crypto::make_decoder("D1", true, false));
  auto fec_d = std::make_shared<XorFecDecoderFilter>("fec-d");
  receiver.append_filter(fec_d);

  std::vector<Packet> played;
  std::uint64_t wire_count = 0;
  sender.set_output([&](Packet wire) {
    ++wire_count;
    if (wire_count == 2) return;  // lose the second wire packet
    receiver.submit(std::move(wire));
  });
  receiver.set_output([&](Packet out) { played.push_back(std::move(out)); });

  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    sender.submit(make_packet(seq, runs_payload(64)));
  }
  sim.run();
  ASSERT_EQ(played.size(), 4U);
  EXPECT_EQ(fec_d->recovered(), 1U);
  for (const Packet& packet : played) EXPECT_TRUE(packet.intact());
}

TEST(Fec, StateBoundedUnderSustainedLoss) {
  XorFecEncoderFilter encoder("fec-e", 4);
  XorFecDecoderFilter decoder("fec-d");
  util::Rng rng(77);
  for (std::uint64_t seq = 0; seq < 4000; ++seq) {
    for (Packet& wire : run_filter(encoder, make_packet(seq, {1}))) {
      if (rng.next_bool(0.3)) continue;  // heavy loss, many broken groups
      run_filter(decoder, std::move(wire));
    }
  }
  const auto snapshot = decoder.refract();
  EXPECT_LE(std::stoul(snapshot.at("open_groups")), 64U);
}

}  // namespace
}  // namespace sa::components
