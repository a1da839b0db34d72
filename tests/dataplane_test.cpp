// Tests for the zero-copy batched data plane: PacketArena / PacketRef
// semantics, the span-based filter invocation interface (zero-copy bypass,
// FEC multi-output, DES in-arena transforms), batch-size independence — one
// span of N packets must produce exactly what N one-packet spans (the submit
// path's shape) produce — FilterChain::process_batch equivalence with the
// clock-scheduled submit path, and the multi-stream threaded pump including
// its §5.2 per-chain quiescence handshake under load.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>

#include "components/arena.hpp"
#include "components/fec.hpp"
#include "components/filter.hpp"
#include "components/filter_chain.hpp"
#include "components/rle.hpp"
#include "crypto/codec_filters.hpp"
#include "filter_harness.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "video/pump.hpp"

namespace sa::components {
namespace {

Payload random_payload(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Payload payload(n);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  return payload;
}

// --- TagStack ----------------------------------------------------------------

TEST(TagStack, PushPopAndVectorInterop) {
  TagStack stack;
  EXPECT_TRUE(stack.empty());
  stack.push_back("des64");
  stack.push_back("fec:12");
  EXPECT_EQ(stack.size(), 2U);
  EXPECT_EQ(stack.back(), "fec:12");
  EXPECT_EQ(stack, (std::vector<std::string>{"des64", "fec:12"}));
  EXPECT_EQ(stack.to_vector(), (std::vector<std::string>{"des64", "fec:12"}));
  stack.pop_back();
  EXPECT_EQ(stack, (std::vector<std::string>{"des64"}));
}

TEST(TagStack, OverflowThrowsInsteadOfTruncating) {
  TagStack stack;
  for (std::size_t i = 0; i < TagStack::kMaxTags; ++i) stack.push_back("t");
  EXPECT_THROW(stack.push_back("one-too-many"), std::length_error);
  EXPECT_EQ(stack.size(), TagStack::kMaxTags);  // unchanged by the failed push
  std::string oversized(TagStack::kMaxTagLength + 1, 'x');
  stack.pop_back();
  EXPECT_THROW(stack.push_back(oversized), std::length_error);
  stack.push_back(std::string(TagStack::kMaxTagLength, 'x'));  // max length fits
  EXPECT_EQ(stack.back().size(), TagStack::kMaxTagLength);
}

// --- PacketArena / PacketRef --------------------------------------------------

TEST(Arena, MakeStampsChecksumAndRoundTripsToPacket) {
  PacketArena arena;
  const Payload payload = random_payload(100, 1);
  PacketRef ref = arena.make(7, 42, payload);
  EXPECT_EQ(ref.stream_id(), 7U);
  EXPECT_EQ(ref.sequence(), 42U);
  EXPECT_TRUE(ref.intact());

  const Packet packet = ref.to_packet();
  EXPECT_TRUE(packet.intact());
  EXPECT_EQ(packet.payload, payload);
}

TEST(Arena, ResetRecyclesChunksWithoutReallocating) {
  PacketArena arena(4096);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 8; ++i) arena.make_blank(1, i, 256);
    EXPECT_EQ(arena.live_packets(), 8U);
    arena.reset();
    EXPECT_EQ(arena.live_packets(), 0U);
  }
  // All rounds fit one chunk: exactly one heap chunk allocation ever.
  EXPECT_EQ(arena.stats().chunk_allocs, 1U);
  EXPECT_EQ(arena.stats().resets, 10U);
}

TEST(Arena, OversizedPayloadGetsDedicatedChunk) {
  PacketArena arena(4096);
  PacketRef big = arena.make_blank(1, 0, 1 << 20);
  EXPECT_EQ(big.size(), 1U << 20);
  EXPECT_GE(arena.stats().chunk_allocs, 1U);
}

TEST(Arena, AddressesStableAcrossManyHeaders) {
  PacketArena arena(1024);
  std::vector<PacketRef> refs;
  for (int i = 0; i < 1000; ++i) refs.push_back(arena.make(1, i, random_payload(64, i)));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(refs[i].sequence(), static_cast<std::uint64_t>(i));
    EXPECT_TRUE(refs[i].intact());
  }
}

// --- zero-copy span invocation ------------------------------------------------

TEST(SpanFilters, BypassForwardsSameBufferZeroCopies) {
  PacketArena arena;
  std::vector<PacketRef> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(arena.make_blank(1, i, 64));
  const std::uint64_t copies_before = arena.stats().payload_copies;
  const std::uint8_t* data0 = batch[0].data();

  UntagFilter untag("u", "absent-tag");
  std::vector<PacketRef> out;
  VectorSink sink(arena, out);
  untag.process_span(batch, sink);

  ASSERT_EQ(out.size(), 4U);
  EXPECT_EQ(out[0].data(), data0);  // the SAME buffer — pointer identity
  EXPECT_EQ(out[0].header(), batch[0].header());
  EXPECT_EQ(arena.stats().payload_copies, copies_before);  // zero payload copies
  EXPECT_EQ(untag.stats().bypassed, 4U);
}

TEST(SpanFilters, TagFilterMutatesInPlace) {
  PacketArena arena;
  std::vector<PacketRef> batch{arena.make_blank(1, 0, 32)};
  TagFilter tag("t", "x");
  std::vector<PacketRef> out;
  VectorSink sink(arena, out);
  tag.process_span(batch, sink);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].tags(), (std::vector<std::string>{"x"}));
  EXPECT_EQ(out[0].header(), batch[0].header());
}

// --- FEC under the span API ---------------------------------------------------
// "Per-packet path" below means the same filter fed one-packet spans.

TEST(FecSpan, EncoderInterleavesParityAndKeepsOrder) {
  PacketArena arena;
  const std::size_t group = 3;
  XorFecEncoderFilter enc("fec-e", group);

  std::vector<PacketRef> batch;
  for (int i = 0; i < 7; ++i) batch.push_back(arena.make(1, i, random_payload(50, i)));

  std::vector<PacketRef> out;
  VectorSink sink(arena, out);
  enc.process_span(batch, sink);

  // 7 data packets, groups of 3 → parity after inputs 2 and 5: d0 d1 d2 P d3
  // d4 d5 P d6.
  ASSERT_EQ(out.size(), 9U);
  const std::vector<std::uint64_t> expected_seqs{0, 1, 2, 2, 3, 4, 5, 5, 6};
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].sequence(), expected_seqs[i]) << "position " << i;
  }
  EXPECT_TRUE(out[3].tags().back().starts_with("fec-parity:0:"));
  EXPECT_TRUE(out[7].tags().back().starts_with("fec-parity:1:"));
  EXPECT_TRUE(out[0].tags().back().starts_with("fec:0"));
  EXPECT_TRUE(out[8].tags().back().starts_with("fec:2"));

  // Stats exact: 7 processed (data), nothing bypassed or dropped.
  EXPECT_EQ(enc.stats().processed, 7U);
  EXPECT_EQ(enc.stats().bypassed, 0U);
  EXPECT_EQ(enc.stats().dropped, 0U);
  EXPECT_EQ(enc.parity_emitted(), 2U);
}

TEST(FecSpan, DecoderReconstructsDroppedPacketFromSpan) {
  PacketArena arena;
  const std::size_t group = 4;
  XorFecEncoderFilter enc("fec-e", group);
  XorFecDecoderFilter dec("fec-d");

  std::vector<PacketRef> batch;
  std::vector<Payload> originals;
  for (int i = 0; i < 4; ++i) {
    originals.push_back(random_payload(64, 100 + i));
    batch.push_back(arena.make(1, i, originals.back()));
  }
  std::vector<PacketRef> encoded;
  VectorSink enc_sink(arena, encoded);
  enc.process_span(batch, enc_sink);
  ASSERT_EQ(encoded.size(), 5U);  // 4 data + 1 parity

  // Drop data packet #1 on the "wire".
  std::vector<PacketRef> wire;
  for (PacketRef& ref : encoded) {
    if (!(ref.tags().back().starts_with("fec:") && ref.sequence() == 1)) wire.push_back(ref);
  }
  ASSERT_EQ(wire.size(), 4U);

  std::vector<PacketRef> delivered;
  VectorSink dec_sink(arena, delivered);
  dec.process_span(wire, dec_sink);

  // 3 surviving data packets + the reconstructed one (emitted at the parity
  // position, i.e. last).
  ASSERT_EQ(delivered.size(), 4U);
  EXPECT_EQ(dec.recovered(), 1U);
  std::vector<std::uint64_t> seqs;
  for (const PacketRef& ref : delivered) {
    EXPECT_TRUE(ref.intact());
    seqs.push_back(ref.sequence());
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 2, 3, 1}));
  const PacketRef& rebuilt = delivered.back();
  EXPECT_EQ(rebuilt.payload().size(), originals[1].size());
  EXPECT_TRUE(std::equal(originals[1].begin(), originals[1].end(), rebuilt.data()));

  // Stats exact: decoder processed 3 data + 1 parity; nothing bypassed/dropped.
  EXPECT_EQ(dec.stats().processed, 4U);
  EXPECT_EQ(dec.stats().bypassed, 0U);
  EXPECT_EQ(dec.stats().dropped, 0U);
}

TEST(FecSpan, MatchesPerPacketPathOutputExactly) {
  // One 9-packet span and nine one-packet spans must produce identical
  // packet streams.
  const std::size_t group = 3;
  XorFecEncoderFilter span_enc("a", group);
  XorFecEncoderFilter single_enc("b", group);

  PacketArena arena;
  std::vector<PacketRef> batch;
  std::vector<Packet> single_out;
  for (int i = 0; i < 9; ++i) {
    const Payload payload = random_payload(40, 500 + i);
    batch.push_back(arena.make(3, i, payload));
    for (Packet& p : run_filter(single_enc, Packet::make(3, i, payload))) {
      single_out.push_back(std::move(p));
    }
  }
  std::vector<PacketRef> span_out;
  VectorSink sink(arena, span_out);
  span_enc.process_span(batch, sink);

  ASSERT_EQ(span_out.size(), single_out.size());
  for (std::size_t i = 0; i < span_out.size(); ++i) {
    const Packet from_span = span_out[i].to_packet();
    EXPECT_EQ(from_span.sequence, single_out[i].sequence) << i;
    EXPECT_EQ(from_span.payload, single_out[i].payload) << i;
    EXPECT_EQ(from_span.encoding_stack, single_out[i].encoding_stack) << i;
    EXPECT_EQ(from_span.plaintext_checksum, single_out[i].plaintext_checksum) << i;
  }
}

TEST(FecSpan, ReconstructionMatchesPerPacketPathUnderLoss) {
  // Same loss pattern through one span and through one-packet spans: the
  // reconstructed packets must be byte-identical, and the decoder must build
  // them arena-natively (zero payload copies INTO the arena).
  const std::size_t group = 4;
  XorFecEncoderFilter enc("fec-e", group);
  XorFecDecoderFilter span_dec("a");
  XorFecDecoderFilter single_dec("b");

  PacketArena arena;
  std::vector<PacketRef> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(arena.make(2, i, random_payload(48, 700 + i)));
  std::vector<PacketRef> encoded;
  VectorSink enc_sink(arena, encoded);
  enc.process_span(batch, enc_sink);
  ASSERT_EQ(encoded.size(), 10U);  // 8 data + 2 parity

  // Drop one data packet per group (seq 2 and seq 5) on the wire.
  std::vector<PacketRef> wire;
  for (PacketRef& ref : encoded) {
    const bool dropped = ref.tags().back().starts_with("fec:") &&
                         (ref.sequence() == 2 || ref.sequence() == 5);
    if (!dropped) wire.push_back(ref);
  }
  ASSERT_EQ(wire.size(), 8U);

  std::vector<Packet> single_out;
  for (const PacketRef& ref : wire) {
    for (Packet& p : run_filter(single_dec, ref.to_packet())) {
      single_out.push_back(std::move(p));
    }
  }

  const std::uint64_t copies_before = arena.stats().payload_copies;
  std::vector<PacketRef> span_out;
  VectorSink dec_sink(arena, span_out);
  span_dec.process_span(wire, dec_sink);
  EXPECT_EQ(arena.stats().payload_copies, copies_before);

  EXPECT_EQ(span_dec.recovered(), 2U);
  EXPECT_EQ(single_dec.recovered(), 2U);
  ASSERT_EQ(span_out.size(), single_out.size());
  for (std::size_t i = 0; i < span_out.size(); ++i) {
    const Packet from_span = span_out[i].to_packet();
    EXPECT_EQ(from_span.stream_id, single_out[i].stream_id) << i;
    EXPECT_EQ(from_span.sequence, single_out[i].sequence) << i;
    EXPECT_EQ(from_span.payload, single_out[i].payload) << i;
    EXPECT_EQ(from_span.encoding_stack, single_out[i].encoding_stack) << i;
    EXPECT_EQ(from_span.plaintext_checksum, single_out[i].plaintext_checksum) << i;
    EXPECT_TRUE(from_span.intact()) << i;
  }
}

TEST(FecSpan, MalformedParityHandledEquivalentlyOnBothPaths) {
  const std::size_t group = 3;
  XorFecEncoderFilter enc("fec-e", group);

  PacketArena arena;
  std::vector<PacketRef> batch;
  for (int i = 0; i < 3; ++i) batch.push_back(arena.make(1, i, random_payload(32, 40 + i)));
  std::vector<PacketRef> encoded;
  VectorSink enc_sink(arena, encoded);
  enc.process_span(batch, enc_sink);
  ASSERT_EQ(encoded.size(), 4U);
  PacketRef parity = encoded.back();
  ASSERT_TRUE(parity.tags().back().starts_with("fec-parity:"));

  // Corrupt the parity's length_xor field (bytes 8..11) so the claimed
  // reconstruction length exceeds every accumulated payload: both paths must
  // refuse to reconstruct (and not crash or emit garbage).
  for (std::size_t i = 8; i < 12; ++i) parity.data()[i] = 0xff;
  // Lose data packet #1 so a reconstruction attempt actually fires.
  std::vector<PacketRef> wire{encoded[0], encoded[2], parity};

  XorFecDecoderFilter span_dec("a");
  std::vector<PacketRef> span_out;
  VectorSink dec_sink(arena, span_out);
  span_dec.process_span(wire, dec_sink);
  EXPECT_EQ(span_dec.recovered(), 0U);
  EXPECT_EQ(span_out.size(), 2U);  // survivors only, no rebuilt packet

  XorFecDecoderFilter single_dec("b");
  std::vector<Packet> single_out;
  for (const PacketRef& ref : wire) {
    for (Packet& p : run_filter(single_dec, ref.to_packet())) {
      single_out.push_back(std::move(p));
    }
  }
  EXPECT_EQ(single_dec.recovered(), 0U);
  EXPECT_EQ(single_out.size(), 2U);

  // A truncated parity (< 12 byte header) is dropped, not absorbed, by both.
  XorFecDecoderFilter span_dec2("c");
  XorFecDecoderFilter single_dec2("d");
  PacketRef stub = arena.make(1, 9, random_payload(4, 9));
  stub.tags().push_back("fec-parity:7:3");
  std::vector<PacketRef> stub_wire{stub};
  std::vector<PacketRef> stub_out;
  VectorSink stub_sink(arena, stub_out);
  span_dec2.process_span(stub_wire, stub_sink);
  EXPECT_TRUE(stub_out.empty());
  EXPECT_EQ(span_dec2.stats().dropped, 1U);
  EXPECT_TRUE(run_filter(single_dec2, stub.to_packet()).empty());
  EXPECT_EQ(single_dec2.stats().dropped, 1U);
}

// --- DES codecs in the arena --------------------------------------------------

TEST(DesSpan, EncodeDecodeRoundTripInArenaZeroCopies) {
  PacketArena arena;
  crypto::DesEncoderFilter enc("E1", crypto::Scheme::Des64);
  crypto::DesDecoderFilter dec("D1", true, false);

  std::vector<PacketRef> batch;
  std::vector<Payload> originals;
  for (int i = 0; i < 16; ++i) {
    originals.push_back(random_payload(100 + i, i));
    batch.push_back(arena.make(1, i, originals.back()));
  }
  const std::uint64_t copies_before = arena.stats().payload_copies;

  std::vector<PacketRef> encoded;
  VectorSink enc_sink(arena, encoded);
  enc.process_span(batch, enc_sink);
  ASSERT_EQ(encoded.size(), 16U);
  for (const PacketRef& ref : encoded) {
    EXPECT_EQ(ref.tags(), (std::vector<std::string>{"des64"}));
    EXPECT_EQ(ref.size() % 8, 0U);
  }

  std::vector<PacketRef> decoded;
  VectorSink dec_sink(arena, decoded);
  dec.process_span(encoded, dec_sink);
  ASSERT_EQ(decoded.size(), 16U);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(decoded[i].intact()) << i;
    EXPECT_EQ(decoded[i].payload().size(), originals[i].size());
    EXPECT_TRUE(std::equal(originals[i].begin(), originals[i].end(), decoded[i].data()));
  }
  // Encrypt writes into fresh arena buffers and decrypt works in place:
  // no payload bytes were copied INTO the arena after setup.
  EXPECT_EQ(arena.stats().payload_copies, copies_before);
}

TEST(DesSpan, Ede128RoundTripAndMismatchedDecoderBypasses) {
  PacketArena arena;
  crypto::DesEncoderFilter enc("E2", crypto::Scheme::Des128);
  crypto::DesDecoderFilter wrong("D1", true, false);   // 64-only decoder
  crypto::DesDecoderFilter right("D2", true, true);    // compatible decoder

  std::vector<PacketRef> batch{arena.make(1, 0, random_payload(64, 9))};
  std::vector<PacketRef> encoded;
  VectorSink enc_sink(arena, encoded);
  enc.process_span(batch, enc_sink);

  std::vector<PacketRef> bypassed;
  VectorSink wrong_sink(arena, bypassed);
  wrong.process_span(encoded, wrong_sink);
  ASSERT_EQ(bypassed.size(), 1U);
  EXPECT_EQ(bypassed[0].tags(), (std::vector<std::string>{"des128"}));
  EXPECT_EQ(wrong.stats().bypassed, 1U);

  std::vector<PacketRef> decoded;
  VectorSink right_sink(arena, decoded);
  right.process_span(bypassed, right_sink);
  ASSERT_EQ(decoded.size(), 1U);
  EXPECT_TRUE(decoded[0].intact());
}

// --- RLE codecs in the arena --------------------------------------------------

Payload run_structured_payload(std::size_t runs, std::uint64_t seed) {
  util::Rng rng(seed);
  Payload payload;
  for (std::size_t r = 0; r < runs; ++r) {
    const auto byte = static_cast<std::uint8_t>(rng.next_u64());
    const std::size_t len = 1 + rng.next_u64() % 300;  // some runs exceed 255
    payload.insert(payload.end(), len, byte);
  }
  return payload;
}

TEST(RleSpan, CompressMatchesPerPacketPathExactly) {
  RleCompressFilter span_enc("a");
  RleCompressFilter single_enc("b");

  PacketArena arena;
  std::vector<PacketRef> batch;
  std::vector<Packet> single_out;
  for (int i = 0; i < 8; ++i) {
    // Mix compressible (run-structured) and expanding (random) payloads.
    const Payload payload =
        i % 2 == 0 ? run_structured_payload(6, 40 + i) : random_payload(120, 40 + i);
    batch.push_back(arena.make(5, i, payload));
    single_out.push_back(run_one(single_enc, Packet::make(5, i, payload)));
  }
  std::vector<PacketRef> span_out;
  VectorSink sink(arena, span_out);
  span_enc.process_span(batch, sink);

  ASSERT_EQ(span_out.size(), single_out.size());
  for (std::size_t i = 0; i < span_out.size(); ++i) {
    const Packet from_span = span_out[i].to_packet();
    EXPECT_EQ(from_span.sequence, single_out[i].sequence) << i;
    EXPECT_EQ(from_span.payload, single_out[i].payload) << i;
    EXPECT_EQ(from_span.encoding_stack, single_out[i].encoding_stack) << i;
  }
  EXPECT_EQ(span_enc.stats().processed, single_enc.stats().processed);
  EXPECT_DOUBLE_EQ(span_enc.ratio(), single_enc.ratio());
}

TEST(RleSpan, DecompressMatchesPerPacketPathIncludingBypassAndDrop) {
  RleCompressFilter enc("e");
  RleDecompressFilter span_dec("a");
  RleDecompressFilter single_dec("b");

  PacketArena arena;
  std::vector<PacketRef> wire;
  std::vector<Packet> single_in;

  // Two well-formed encoded packets.
  for (int i = 0; i < 2; ++i) {
    const Payload payload = run_structured_payload(4, 90 + i);
    wire.push_back(arena.make(7, i, payload));
    single_in.push_back(Packet::make(7, i, payload));
  }
  std::vector<PacketRef> encoded;
  VectorSink enc_sink(arena, encoded);
  enc.process_span(wire, enc_sink);
  for (Packet& p : single_in) p = run_one(enc, std::move(p));

  // One untagged packet (bypass) and two malformed tagged ones (drop):
  // odd length, and a zero run count.
  encoded.push_back(arena.make(7, 2, random_payload(33, 92)));
  single_in.push_back(Packet::make(7, 2, encoded.back().to_packet().payload));

  const Payload odd{1, 7, 9};
  encoded.push_back(arena.make(7, 3, odd));
  encoded.back().tags().push_back(kTagRle);
  single_in.push_back(Packet::make(7, 3, odd));
  single_in.back().encoding_stack.emplace_back(kTagRle);

  const Payload zero_count{0, 42};
  encoded.push_back(arena.make(7, 4, zero_count));
  encoded.back().tags().push_back(kTagRle);
  single_in.push_back(Packet::make(7, 4, zero_count));
  single_in.back().encoding_stack.emplace_back(kTagRle);

  std::vector<PacketRef> span_out;
  VectorSink dec_sink(arena, span_out);
  span_dec.process_span(encoded, dec_sink);

  std::vector<Packet> single_out;
  for (Packet& p : single_in) {
    for (Packet& out : run_filter(single_dec, std::move(p))) single_out.push_back(std::move(out));
  }

  ASSERT_EQ(span_out.size(), single_out.size());
  for (std::size_t i = 0; i < span_out.size(); ++i) {
    const Packet from_span = span_out[i].to_packet();
    EXPECT_EQ(from_span.sequence, single_out[i].sequence) << i;
    EXPECT_EQ(from_span.payload, single_out[i].payload) << i;
    EXPECT_EQ(from_span.encoding_stack, single_out[i].encoding_stack) << i;
    EXPECT_TRUE(span_out[i].intact()) << i;
  }
  EXPECT_EQ(span_dec.stats().processed, single_dec.stats().processed);
  EXPECT_EQ(span_dec.stats().bypassed, single_dec.stats().bypassed);
  EXPECT_EQ(span_dec.stats().dropped, single_dec.stats().dropped);
  EXPECT_EQ(span_dec.stats().dropped, 2U);
}

TEST(RleSpan, BypassForwardsSameBufferAndRoundTripRecoversInput) {
  PacketArena arena;
  RleCompressFilter enc("E");
  RleDecompressFilter dec("D");

  const Payload original = run_structured_payload(10, 77);
  std::vector<PacketRef> batch{arena.make(9, 0, original)};

  std::vector<PacketRef> encoded;
  VectorSink enc_sink(arena, encoded);
  enc.process_span(batch, enc_sink);
  ASSERT_EQ(encoded.size(), 1U);
  EXPECT_EQ(encoded[0].tags(), (std::vector<std::string>{"rle"}));

  std::vector<PacketRef> decoded;
  VectorSink dec_sink(arena, decoded);
  dec.process_span(encoded, dec_sink);
  ASSERT_EQ(decoded.size(), 1U);
  EXPECT_TRUE(decoded[0].tags().empty());
  EXPECT_TRUE(decoded[0].intact());
  ASSERT_EQ(decoded[0].size(), original.size());
  EXPECT_TRUE(std::equal(original.begin(), original.end(), decoded[0].data()));

  // Untagged input bypasses with the exact same buffer — zero copies.
  std::vector<PacketRef> plain{arena.make(9, 1, original)};
  const std::uint8_t* before = plain[0].data();
  std::vector<PacketRef> forwarded;
  VectorSink fwd_sink(arena, forwarded);
  dec.process_span(plain, fwd_sink);
  ASSERT_EQ(forwarded.size(), 1U);
  EXPECT_EQ(forwarded[0].data(), before);
  EXPECT_EQ(dec.stats().bypassed, 1U);
}

// --- FilterChain::process_batch -----------------------------------------------

TEST(ChainBatch, MovesSpansThroughWholeChainWithBatchAccounting) {
  sim::Simulator simulator;
  FilterChain chain(simulator, "chain");
  chain.append_filter(std::make_shared<TagFilter>("t", "x"));
  chain.append_filter(std::make_shared<UntagFilter>("u", "x"));

  PacketArena arena;
  std::vector<PacketRef> batch;
  for (int i = 0; i < 32; ++i) batch.push_back(arena.make(1, i, random_payload(64, i)));

  std::vector<PacketRef> out;
  VectorSink sink(arena, out);
  EXPECT_EQ(chain.process_batch(batch, sink), 32U);

  ASSERT_EQ(out.size(), 32U);
  for (const PacketRef& ref : out) EXPECT_TRUE(ref.intact());
  EXPECT_EQ(chain.stats().submitted, 32U);
  EXPECT_EQ(chain.stats().delivered, 32U);
  EXPECT_EQ(chain.stats().batches, 1U);
  // One accounting pass per batch: 20us overhead + 20us + 20us filters.
  EXPECT_EQ(chain.stats().batch_virtual_time, runtime::us(60));
}

TEST(ChainBatch, QuiescenceBlocksAtBatchBoundaryNotMidSpan) {
  sim::Simulator simulator;
  FilterChain chain(simulator, "chain");
  chain.append_filter(std::make_shared<PassThroughFilter>("p"));

  PacketArena arena;
  std::vector<PacketRef> batch{arena.make(1, 0, random_payload(16, 0))};
  std::vector<PacketRef> out;
  VectorSink sink(arena, out);

  // Idle chain: request fires immediately and the chain blocks.
  bool quiescent = false;
  chain.request_quiescence([&] { quiescent = true; });
  EXPECT_TRUE(quiescent);
  EXPECT_TRUE(chain.blocked());
  // Batch submission while blocked is a protocol violation.
  EXPECT_THROW(chain.process_batch(batch, sink), std::logic_error);
  chain.resume();
  EXPECT_EQ(chain.process_batch(batch, sink), 1U);
}

TEST(ChainBatch, MatchesLegacyPerPacketDeliveryWithFecAndDes) {
  // Same filters, same inputs: the batched chain and the clock-scheduled
  // chain (a batch of one per packet) must deliver identical packet streams.
  sim::Simulator simulator;
  FilterChain submitted(simulator, "submitted");
  submitted.append_filter(std::make_shared<XorFecEncoderFilter>("fec-e", 4));
  submitted.append_filter(std::make_shared<crypto::DesEncoderFilter>("E1", crypto::Scheme::Des64));
  submitted.append_filter(std::make_shared<crypto::DesDecoderFilter>("D1", true, false));
  submitted.append_filter(std::make_shared<XorFecDecoderFilter>("fec-d"));

  std::vector<Packet> submitted_out;
  submitted.set_output([&](Packet p) { submitted_out.push_back(std::move(p)); });
  std::vector<Payload> payloads;
  for (int i = 0; i < 12; ++i) payloads.push_back(random_payload(80, 700 + i));
  for (int i = 0; i < 12; ++i) submitted.submit(Packet::make(1, i, payloads[i]));
  simulator.run();

  FilterChain batched(simulator, "batched");
  batched.append_filter(std::make_shared<XorFecEncoderFilter>("fec-e", 4));
  batched.append_filter(std::make_shared<crypto::DesEncoderFilter>("E1", crypto::Scheme::Des64));
  batched.append_filter(std::make_shared<crypto::DesDecoderFilter>("D1", true, false));
  batched.append_filter(std::make_shared<XorFecDecoderFilter>("fec-d"));

  PacketArena arena;
  std::vector<PacketRef> batch;
  for (int i = 0; i < 12; ++i) batch.push_back(arena.make(1, i, payloads[i]));
  std::vector<PacketRef> out;
  VectorSink sink(arena, out);
  batched.process_batch(batch, sink);

  ASSERT_EQ(out.size(), submitted_out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Packet p = out[i].to_packet();
    EXPECT_EQ(p.sequence, submitted_out[i].sequence) << i;
    EXPECT_EQ(p.payload, submitted_out[i].payload) << i;
    EXPECT_EQ(p.encoding_stack, submitted_out[i].encoding_stack) << i;
  }
}

TEST(ChainBatch, SubmitAndProcessBatchCountDropsAlike) {
  // [FEC encoder(3), FEC decoder]: the decoder absorbs one parity packet per
  // group of three. Both data paths count that as one drop per group.
  const auto make_chain = [](sim::Simulator& simulator, const std::string& name) {
    auto chain = std::make_unique<FilterChain>(simulator, name);
    chain->append_filter(std::make_shared<XorFecEncoderFilter>("fec-e", 3));
    chain->append_filter(std::make_shared<XorFecDecoderFilter>("fec-d"));
    return chain;
  };
  std::vector<Payload> payloads;
  for (int i = 0; i < 9; ++i) payloads.push_back(random_payload(32, 900 + i));

  sim::Simulator simulator;
  const auto submitted = make_chain(simulator, "submitted");
  for (int i = 0; i < 9; ++i) submitted->submit(Packet::make(1, i, payloads[i]));
  simulator.run();

  const auto batched = make_chain(simulator, "batched");
  PacketArena arena;
  std::vector<PacketRef> batch;
  for (int i = 0; i < 9; ++i) batch.push_back(arena.make(1, i, payloads[i]));
  std::vector<PacketRef> out;
  VectorSink sink(arena, out);
  batched->process_batch(batch, sink);

  EXPECT_EQ(submitted->stats().submitted, 9U);
  EXPECT_EQ(submitted->stats().delivered, 9U);
  EXPECT_EQ(submitted->stats().dropped_by_filters, 3U);
  EXPECT_EQ(batched->stats().submitted, submitted->stats().submitted);
  EXPECT_EQ(batched->stats().delivered, submitted->stats().delivered);
  EXPECT_EQ(batched->stats().dropped_by_filters, submitted->stats().dropped_by_filters);
}

}  // namespace
}  // namespace sa::components

// --- threaded pump ------------------------------------------------------------

namespace sa::video {
namespace {

TEST(ThreadedPump, SingleStreamAllPacketsIntact) {
  PumpConfig config;
  config.streams = 1;
  config.batch_size = 32;
  config.packets_per_stream = 4096;
  config.payload_bytes = 200;
  DataPlanePump pump(config);
  pump.start();
  pump.run_to_completion();

  const LaneReport report = pump.lane_report(0);
  EXPECT_EQ(report.generated, 4096U);
  EXPECT_EQ(report.delivered, 4096U);
  EXPECT_EQ(report.intact, 4096U);
  EXPECT_EQ(report.corrupted, 0U);
  EXPECT_EQ(report.undecodable, 0U);
  EXPECT_GT(report.pps, 0.0);
  EXPECT_GT(report.p99_delay_us, 0.0);
}

TEST(ThreadedPump, MultiStreamAggregates) {
  PumpConfig config;
  config.streams = 4;
  config.batch_size = 64;
  config.packets_per_stream = 2048;
  DataPlanePump pump(config);
  pump.start();
  pump.run_to_completion();

  const LaneReport total = pump.total_report();
  EXPECT_EQ(total.generated, 4U * 2048U);
  EXPECT_EQ(total.intact, 4U * 2048U);
  EXPECT_EQ(total.corrupted, 0U);
}

TEST(ThreadedPump, AdaptLaneSwapsCodecUnderLoadWithoutCorruption) {
  PumpConfig config;
  config.streams = 2;
  config.batch_size = 32;
  config.packets_per_stream = 60'000;
  config.payload_bytes = 128;
  DataPlanePump pump(config);
  pump.start();

  // While the pump is running, harden lane 0 from DES-64 to DES-128 via the
  // §5.2 handshake: decoder widened first, then the encoder switched — the
  // same safe order the paper's case study uses.
  pump.adapt_lane(0, [](components::FilterChain& encode, components::FilterChain& decode) {
    EXPECT_TRUE(encode.blocked());
    EXPECT_TRUE(decode.blocked());
    decode.replace_filter("D1", crypto::make_decoder("D2", true, true));
    encode.replace_filter("E1", crypto::make_encoder_e2());
  });

  pump.run_to_completion();

  const LaneReport lane0 = pump.lane_report(0);
  EXPECT_EQ(lane0.corrupted, 0U);
  EXPECT_EQ(lane0.undecodable, 0U);
  EXPECT_EQ(lane0.intact, lane0.delivered);
  EXPECT_EQ(lane0.blocked_windows, 1U);
  EXPECT_GT(lane0.blocked_us, 0.0);
  // Lane 1 was never adapted.
  EXPECT_EQ(pump.lane_report(1).blocked_windows, 0U);
  EXPECT_EQ(pump.lane_report(1).corrupted, 0U);
}

TEST(ThreadedPump, BackToBackAdaptLaneOpensOneWindowEach) {
  // adapt_lane returns only once the lane has resumed, so a call made right
  // after the previous one opens its own blocked window instead of sharing
  // the one still closing.
  PumpConfig config;
  config.streams = 1;
  config.batch_size = 16;
  config.packets_per_stream = std::numeric_limits<std::uint64_t>::max();
  config.payload_bytes = 64;
  DataPlanePump pump(config);
  pump.start();
  // Swap only once traffic flows. The hundred swaps and the stop take a few
  // milliseconds, and on a loaded host the producer thread may not run at
  // all in that time; the lane then delivers nothing, though no window was
  // at fault.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pump.lane_report(0).delivered == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "the lane never delivered a batch";
    std::this_thread::yield();
  }

  constexpr int kSwaps = 100;
  for (int swap = 0; swap < kSwaps; ++swap) {
    const bool to_v2 = swap % 2 == 0;
    pump.adapt_lane(0, [to_v2](components::FilterChain& encode, components::FilterChain& decode) {
      if (to_v2) {
        decode.replace_filter("D1", crypto::make_decoder("D2", true, true));
        encode.replace_filter("E1", crypto::make_encoder_e2());
      } else {
        encode.replace_filter("E2", crypto::make_encoder_e1());
        decode.replace_filter("D2", crypto::make_decoder("D1", true, false));
      }
    });
  }
  pump.stop_and_join();

  const LaneReport report = pump.lane_report(0);
  EXPECT_EQ(report.blocked_windows, static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(report.corrupted, 0U);
  EXPECT_EQ(report.undecodable, 0U);
  EXPECT_GT(report.delivered, 0U);
}

TEST(ThreadedPump, FecChainBuilderSurvivesLoad) {
  PumpConfig config;
  config.streams = 1;
  config.batch_size = 24;
  config.packets_per_stream = 2400;
  DataPlanePump pump(config);
  pump.start([](std::size_t, runtime::Clock&, components::FilterChain& encode,
                components::FilterChain& decode) {
    encode.append_filter(std::make_shared<components::XorFecEncoderFilter>("fec-e", 8));
    encode.append_filter(crypto::make_encoder_e1());
    decode.append_filter(crypto::make_decoder("D1", true, false));
    decode.append_filter(std::make_shared<components::XorFecDecoderFilter>("fec-d"));
  });
  pump.run_to_completion();

  const LaneReport report = pump.lane_report(0);
  // Parity packets are absorbed by the decoder; every data packet arrives intact.
  EXPECT_EQ(report.intact, 2400U);
  EXPECT_EQ(report.corrupted, 0U);
  EXPECT_EQ(report.undecodable, 0U);
}

}  // namespace
}  // namespace sa::video
