#include <gtest/gtest.h>

#include "components/filter_chain.hpp"
#include "crypto/codec_filters.hpp"
#include "filter_harness.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/simulator.hpp"

namespace sa::crypto {
namespace {

using components::run_one;

components::Packet make_packet(std::size_t size = 100) {
  components::Payload payload(size);
  for (std::size_t i = 0; i < size; ++i) payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return components::Packet::make(1, 0, std::move(payload));
}


TEST(CodecFilters, EncoderTagsAndEncrypts) {
  DesEncoderFilter e1("E1", Scheme::Des64);
  const auto packet = make_packet();
  const auto out = run_one(e1, packet);
  EXPECT_EQ(out.encoding_stack, (std::vector<std::string>{"des64"}));
  EXPECT_NE(out.payload, packet.payload);
  EXPECT_FALSE(out.intact());
  EXPECT_EQ(e1.stats().processed, 1U);
}

TEST(CodecFilters, MatchingDecoderRestoresPacket) {
  DesEncoderFilter e1("E1", Scheme::Des64);
  DesDecoderFilter d1("D1", true, false);
  const auto out = run_one(d1, run_one(e1, make_packet()));
  EXPECT_TRUE(out.intact());
  EXPECT_EQ(d1.stats().processed, 1U);
  EXPECT_EQ(d1.stats().bypassed, 0U);
}

TEST(CodecFilters, Des128RoundTrip) {
  DesEncoderFilter e2("E2", Scheme::Des128);
  DesDecoderFilter d3("D3", false, true);
  const auto out = run_one(d3, run_one(e2, make_packet()));
  EXPECT_TRUE(out.intact());
}

TEST(CodecFilters, BypassRuleOnSchemeMismatch) {
  // "When it receives a packet not encoded by the corresponding encoder, it
  // simply forwards the packet to the next filter in the chain."
  DesEncoderFilter e2("E2", Scheme::Des128);
  DesDecoderFilter d1("D1", true, false);
  const auto encoded = run_one(e2, make_packet());
  const auto out = run_one(d1, encoded);
  EXPECT_EQ(out.payload, encoded.payload);  // untouched
  EXPECT_EQ(out.encoding_stack, encoded.encoding_stack);
  EXPECT_EQ(d1.stats().bypassed, 1U);
  EXPECT_FALSE(out.intact());  // still encoded: player counts it undecodable
}

TEST(CodecFilters, BypassOnPlainPacket) {
  DesDecoderFilter d1("D1", true, false);
  const auto out = run_one(d1, make_packet());
  EXPECT_TRUE(out.intact());
  EXPECT_EQ(d1.stats().bypassed, 1U);
}

TEST(CodecFilters, CompatDecoderHandlesBothSchemes) {
  // D2 is the paper's 128/64-bit compatible decoder.
  DesEncoderFilter e1("E1", Scheme::Des64);
  DesEncoderFilter e2("E2", Scheme::Des128);
  DesDecoderFilter d2("D2", true, true);
  EXPECT_TRUE(run_one(d2, run_one(e1, make_packet())).intact());
  EXPECT_TRUE(run_one(d2, run_one(e2, make_packet())).intact());
  EXPECT_EQ(d2.stats().processed, 2U);
}

TEST(CodecFilters, KeyMismatchCorruptsButDelivers) {
  DesKeys server_keys;
  DesKeys client_keys;
  client_keys.key64 = 0x1111111111111111ULL;
  DesEncoderFilter e1("E1", Scheme::Des64, server_keys);
  DesDecoderFilter d1("D1", true, false, client_keys);
  const auto out = run_one(d1, run_one(e1, make_packet()));
  EXPECT_TRUE(out.encoding_stack.empty());  // tag consumed
  EXPECT_FALSE(out.intact());               // but payload is garbage
}

TEST(CodecFilters, NestedEncodingsUnwindInReverseOrder) {
  DesEncoderFilter e1("E1", Scheme::Des64);
  DesEncoderFilter e2("E2", Scheme::Des128);
  DesDecoderFilter d3("D3", false, true);
  DesDecoderFilter d1("D1", true, false);
  // encode 64 then 128; decode must pop 128 first, then 64.
  auto packet = run_one(e2, run_one(e1, make_packet()));
  EXPECT_EQ(packet.encoding_stack, (std::vector<std::string>{"des64", "des128"}));
  packet = run_one(d3, std::move(packet));
  packet = run_one(d1, std::move(packet));
  EXPECT_TRUE(packet.intact());
}

TEST(CodecFilters, FactoriesMatchPaperComponents) {
  const auto e1 = make_encoder_e1();
  const auto e2 = make_encoder_e2();
  const auto d2 = make_decoder("D2", true, true);
  EXPECT_EQ(e1->name(), "E1");
  EXPECT_EQ(e2->name(), "E2");
  EXPECT_EQ(d2->name(), "D2");
  EXPECT_EQ(e1->refract().at("scheme"), "des64");
  EXPECT_EQ(e2->refract().at("scheme"), "des128");
  EXPECT_EQ(d2->refract().at("accepts"), "des64,des128");
}

TEST(CodecFilters, EndToEndThroughChains) {
  sim::Simulator sim;
  components::FilterChain sender(sim, "sender");
  components::FilterChain receiver(sim, "receiver");
  sender.append_filter(make_encoder_e1());
  receiver.append_filter(make_decoder("D1", true, false));

  std::vector<components::Packet> played;
  sender.set_output([&receiver](components::Packet p) { receiver.submit(std::move(p)); });
  receiver.set_output([&played](components::Packet p) { played.push_back(std::move(p)); });

  for (int i = 0; i < 10; ++i) {
    auto packet = make_packet();
    packet.sequence = static_cast<std::uint64_t>(i);
    sender.submit(std::move(packet));
  }
  sim.run();
  ASSERT_EQ(played.size(), 10U);
  for (const auto& packet : played) EXPECT_TRUE(packet.intact());
}

TEST(CodecFilters, SimChainBypassesUnalignedDes64Payload) {
  // A des64-tagged payload whose length is not a multiple of 8 cannot be
  // DES ciphertext. The clock-scheduled chain must forward it untouched (the
  // bypass rule) rather than throw out of the clock callback.
  runtime::SimRuntime rt(1);
  components::FilterChain chain(rt.clock(), "receiver");
  const auto d1 = std::make_shared<DesDecoderFilter>("D1", true, false);
  chain.append_filter(d1);
  std::vector<components::Packet> delivered;
  chain.set_output([&](components::Packet p) { delivered.push_back(std::move(p)); });

  components::Packet packet = make_packet(13);
  packet.encoding_stack.push_back(kTagDes64);
  chain.submit(packet);
  EXPECT_NO_THROW(rt.advance(runtime::ms(1)));

  ASSERT_EQ(delivered.size(), 1U);
  EXPECT_EQ(delivered[0].encoding_stack, (std::vector<std::string>{"des64"}));
  EXPECT_EQ(delivered[0].payload, packet.payload);
  EXPECT_EQ(d1->stats().bypassed, 1U);
  EXPECT_EQ(d1->stats().processed, 0U);
}

}  // namespace
}  // namespace sa::crypto
