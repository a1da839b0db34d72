#include <gtest/gtest.h>

#include "components/filter.hpp"
#include "components/filter_chain.hpp"
#include "components/packet.hpp"
#include "filter_harness.hpp"
#include "sim/simulator.hpp"

namespace sa::components {
namespace {

Packet make_packet(std::uint64_t seq = 0) {
  return Packet::make(1, seq, Payload{1, 2, 3, 4, 5});
}

// --- Packet ------------------------------------------------------------------

TEST(Packet, ChecksumStampedAtCreation) {
  const Packet packet = make_packet();
  EXPECT_EQ(packet.plaintext_checksum, payload_checksum(packet.payload));
  EXPECT_TRUE(packet.intact());
}

TEST(Packet, TamperedPayloadDetected) {
  Packet packet = make_packet();
  packet.payload[0] ^= 0xFF;
  EXPECT_FALSE(packet.intact());
}

TEST(Packet, ResidualEncodingNotIntact) {
  Packet packet = make_packet();
  packet.encoding_stack.push_back("des64");
  EXPECT_FALSE(packet.intact());
}

TEST(Packet, ChecksumDiffersForDifferentPayloads) {
  EXPECT_NE(payload_checksum({1, 2, 3}), payload_checksum({1, 2, 4}));
  EXPECT_NE(payload_checksum({}), payload_checksum({0}));
}

// Known FNV-1a 64-bit digests: pins the word-batched implementation to the
// byte-wise definition (old and new code must agree on every input).
TEST(Packet, ChecksumMatchesKnownFnv1aDigests) {
  EXPECT_EQ(payload_checksum({}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(payload_checksum({'a'}), 0xaf63dc4c8601ec8cULL);
  const std::string foobar = "foobar";
  EXPECT_EQ(payload_checksum(reinterpret_cast<const std::uint8_t*>(foobar.data()),
                             foobar.size()),
            0x85944171f73967e8ULL);
  // Inputs longer than one 8-byte word exercise the batched loop + tail.
  Payload sixteen(16);
  for (std::size_t i = 0; i < sixteen.size(); ++i) sixteen[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(payload_checksum(sixteen), 0x7c84dc9477851775ULL);
  const std::string hello = "hello, world!";  // 13 bytes: one word + 5-byte tail
  EXPECT_EQ(payload_checksum(reinterpret_cast<const std::uint8_t*>(hello.data()),
                             hello.size()),
            0xe60e63e648826894ULL);
}

// The word loop must agree with the byte-wise definition at every length
// around the 8-byte boundaries (off-by-one in the tail would corrupt every
// checksum comparison in the system).
TEST(Packet, ChecksumWordBatchingAgreesWithByteLoopAtAllLengths) {
  Payload data(67);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (std::size_t len = 0; len <= data.size(); ++len) {
    std::uint64_t expected = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
      expected = (expected ^ data[i]) * 0x100000001b3ULL;
    }
    EXPECT_EQ(payload_checksum(data.data(), len), expected) << "length " << len;
  }
}

// --- simple filters -----------------------------------------------------------

TEST(Filters, PassThroughCountsProcessed) {
  PassThroughFilter filter("p");
  const auto out = run_filter(filter, make_packet());
  ASSERT_EQ(out.size(), 1U);
  EXPECT_TRUE(out[0].intact());
  EXPECT_EQ(filter.stats().processed, 1U);
}

TEST(Filters, TagUntagRoundTrip) {
  TagFilter tag("t", "fec");
  UntagFilter untag("u", "fec");
  auto tagged = run_filter(tag, make_packet());
  ASSERT_EQ(tagged.size(), 1U);
  EXPECT_EQ(tagged[0].encoding_stack, (std::vector<std::string>{"fec"}));
  const auto untagged = run_filter(untag, std::move(tagged[0]));
  ASSERT_EQ(untagged.size(), 1U);
  EXPECT_TRUE(untagged[0].intact());
  EXPECT_EQ(untag.stats().processed, 1U);
  EXPECT_EQ(untag.stats().bypassed, 0U);
}

TEST(Filters, UntagBypassesWrongTag) {
  UntagFilter untag("u", "fec");
  Packet packet = make_packet();
  packet.encoding_stack.push_back("other");
  const auto out = run_filter(untag, packet);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].encoding_stack, (std::vector<std::string>{"other"}));
  EXPECT_EQ(untag.stats().bypassed, 1U);
}

TEST(Filters, RefractExposesStats) {
  PassThroughFilter filter("p", sim::us(33));
  run_filter(filter, make_packet());
  const auto snapshot = filter.refract();
  EXPECT_EQ(snapshot.at("name"), "p");
  EXPECT_EQ(snapshot.at("processed"), "1");
  EXPECT_EQ(snapshot.at("processing_time_us"), "33");
}

// --- FilterChain ------------------------------------------------------------------

struct ChainFixture : ::testing::Test {
  sim::Simulator sim;
  FilterChain chain{sim, "chain", sim::us(20)};
  std::vector<Packet> delivered;

  void SetUp() override {
    chain.set_output([this](Packet packet) { delivered.push_back(std::move(packet)); });
  }
};

TEST_F(ChainFixture, EmptyChainForwardsAfterOverhead) {
  chain.submit(make_packet());
  sim.run();
  ASSERT_EQ(delivered.size(), 1U);
  EXPECT_EQ(sim.now(), sim::us(20));
  EXPECT_TRUE(delivered[0].intact());
}

TEST_F(ChainFixture, FiltersAppliedInOrder) {
  chain.append_filter(std::make_shared<TagFilter>("t1", "a"));
  chain.append_filter(std::make_shared<TagFilter>("t2", "b"));
  chain.submit(make_packet());
  sim.run();
  ASSERT_EQ(delivered.size(), 1U);
  EXPECT_EQ(delivered[0].encoding_stack, (std::vector<std::string>{"a", "b"}));
}

TEST_F(ChainFixture, ProcessingTimeAccumulates) {
  chain.append_filter(std::make_shared<PassThroughFilter>("f1", sim::us(100)));
  chain.append_filter(std::make_shared<PassThroughFilter>("f2", sim::us(50)));
  chain.submit(make_packet());
  sim.run();
  EXPECT_EQ(sim.now(), sim::us(170));  // 20 overhead + 100 + 50
}

TEST_F(ChainFixture, PacketsSerializeThroughChain) {
  chain.submit(make_packet(0));
  chain.submit(make_packet(1));
  chain.submit(make_packet(2));
  sim.run();
  ASSERT_EQ(delivered.size(), 3U);
  EXPECT_EQ(sim.now(), sim::us(60));  // 3 x 20us, one at a time
  EXPECT_EQ(delivered[2].sequence, 2U);
  EXPECT_EQ(chain.stats().submitted, 3U);
  EXPECT_EQ(chain.stats().delivered, 3U);
}

TEST_F(ChainFixture, InsertRemoveReplace) {
  chain.append_filter(std::make_shared<PassThroughFilter>("a"));
  chain.append_filter(std::make_shared<PassThroughFilter>("c"));
  chain.insert_filter(1, std::make_shared<PassThroughFilter>("b"));
  EXPECT_EQ(chain.filter_names(), (std::vector<std::string>{"a", "b", "c"}));

  const FilterPtr removed = chain.remove_filter("b");
  ASSERT_TRUE(removed);
  EXPECT_EQ(removed->name(), "b");
  EXPECT_EQ(chain.filter_names(), (std::vector<std::string>{"a", "c"}));
  EXPECT_FALSE(chain.remove_filter("zzz"));

  const FilterPtr old = chain.replace_filter("c", std::make_shared<PassThroughFilter>("c2"));
  ASSERT_TRUE(old);
  EXPECT_EQ(old->name(), "c");
  EXPECT_EQ(chain.filter_names(), (std::vector<std::string>{"a", "c2"}));
  EXPECT_FALSE(chain.replace_filter("zzz", std::make_shared<PassThroughFilter>("x")));
}

TEST_F(ChainFixture, RejectsDuplicateAndNullFilters) {
  chain.append_filter(std::make_shared<PassThroughFilter>("a"));
  EXPECT_THROW(chain.append_filter(std::make_shared<PassThroughFilter>("a")),
               std::invalid_argument);
  EXPECT_THROW(chain.append_filter(nullptr), std::invalid_argument);
  EXPECT_THROW(chain.replace_filter("a", nullptr), std::invalid_argument);
}

TEST_F(ChainFixture, QuiescenceImmediateWhenIdle) {
  bool quiescent = false;
  chain.request_quiescence([&] { quiescent = true; });
  EXPECT_TRUE(quiescent);
  EXPECT_TRUE(chain.blocked());
}

TEST_F(ChainFixture, QuiescenceWaitsForInFlightPacket) {
  chain.append_filter(std::make_shared<PassThroughFilter>("slow", sim::ms(10)));
  chain.submit(make_packet());
  sim.run_until(sim::us(1));  // packet now mid-chain

  bool quiescent = false;
  chain.request_quiescence([&] { quiescent = true; });
  EXPECT_FALSE(quiescent);
  EXPECT_FALSE(chain.blocked());

  sim.run();
  EXPECT_TRUE(quiescent);
  EXPECT_TRUE(chain.blocked());
  EXPECT_EQ(delivered.size(), 1U);  // in-flight packet completed, not dropped
}

TEST_F(ChainFixture, PacketModeBlocksWithQueueRemaining) {
  chain.submit(make_packet(0));
  chain.submit(make_packet(1));
  chain.submit(make_packet(2));
  sim.run_until(sim::us(1));
  chain.request_quiescence([] {}, FilterChain::QuiescenceMode::Packet);
  sim.run();
  EXPECT_TRUE(chain.blocked());
  EXPECT_EQ(delivered.size(), 1U);  // only the in-flight packet finished
  EXPECT_EQ(chain.queued(), 2U);
}

TEST_F(ChainFixture, DrainModeEmptiesQueueBeforeBlocking) {
  chain.submit(make_packet(0));
  chain.submit(make_packet(1));
  chain.submit(make_packet(2));
  sim.run_until(sim::us(1));
  bool quiescent = false;
  chain.request_quiescence([&] { quiescent = true; }, FilterChain::QuiescenceMode::Drain);
  sim.run();
  EXPECT_TRUE(quiescent);
  EXPECT_TRUE(chain.blocked());
  EXPECT_EQ(delivered.size(), 3U);
  EXPECT_EQ(chain.queued(), 0U);
}

TEST_F(ChainFixture, BlockedChainQueuesThenResumes) {
  chain.request_quiescence([] {});
  chain.submit(make_packet(0));
  chain.submit(make_packet(1));
  sim.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(chain.queued(), 2U);

  chain.resume();
  sim.run();
  EXPECT_EQ(delivered.size(), 2U);
}

TEST_F(ChainFixture, PacketDelayMeasuredAcrossBlocking) {
  chain.request_quiescence([] {});
  chain.submit(make_packet());
  sim.run_until(sim::ms(10));
  chain.resume();
  sim.run();
  EXPECT_EQ(chain.stats().max_delay, sim::ms(10) + sim::us(20));
}

TEST_F(ChainFixture, CancelQuiescenceUnblocksAndDrains) {
  chain.request_quiescence([] {});
  chain.submit(make_packet());
  chain.cancel_quiescence();
  sim.run();
  EXPECT_EQ(delivered.size(), 1U);
  EXPECT_FALSE(chain.blocked());
}

TEST_F(ChainFixture, CancelPendingQuiescenceRequest) {
  chain.append_filter(std::make_shared<PassThroughFilter>("slow", sim::ms(5)));
  chain.submit(make_packet());
  sim.run_until(sim::us(1));
  bool quiescent = false;
  chain.request_quiescence([&] { quiescent = true; });
  chain.cancel_quiescence();
  sim.run();
  EXPECT_FALSE(quiescent);
  EXPECT_FALSE(chain.blocked());
  EXPECT_EQ(delivered.size(), 1U);
}

TEST_F(ChainFixture, DoubleQuiescenceRequestRejected) {
  chain.append_filter(std::make_shared<PassThroughFilter>("slow", sim::ms(5)));
  chain.submit(make_packet());
  sim.run_until(sim::us(1));
  chain.request_quiescence([] {});
  EXPECT_THROW(chain.request_quiescence([] {}), std::logic_error);
}

TEST_F(ChainFixture, DroppingFilterCountsDrops) {
  class DropAll final : public Filter {
   public:
    DropAll() : Filter("drop") {}
    void process_span(std::span<PacketRef> batch, PacketSink&) override {
      for (std::size_t i = 0; i < batch.size(); ++i) note_dropped();
    }
  };
  chain.append_filter(std::make_shared<DropAll>());
  chain.submit(make_packet());
  sim.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(chain.stats().dropped_by_filters, 1U);
}

TEST_F(ChainFixture, StructuralChangeWhileBlockedAffectsQueuedPackets) {
  chain.request_quiescence([] {});  // blocks immediately
  chain.submit(make_packet());
  chain.append_filter(std::make_shared<TagFilter>("t", "late"));
  chain.resume();
  sim.run();
  ASSERT_EQ(delivered.size(), 1U);
  // The packet was queued before the filter was inserted but processed after:
  // recomposition while blocked applies to everything still queued.
  EXPECT_EQ(delivered[0].encoding_stack, (std::vector<std::string>{"late"}));
}

TEST_F(ChainFixture, RefractAndTransmute) {
  chain.append_filter(std::make_shared<PassThroughFilter>("a"));
  chain.append_filter(std::make_shared<PassThroughFilter>("b"));
  auto snapshot = chain.refract();
  EXPECT_EQ(snapshot.at("filters"), "a,b");
  EXPECT_EQ(snapshot.at("blocked"), "0");

  EXPECT_TRUE(chain.transmute("remove_filter", "a"));
  EXPECT_FALSE(chain.transmute("remove_filter", "a"));
  EXPECT_TRUE(chain.transmute("blocked", "1"));
  EXPECT_TRUE(chain.blocked());
  EXPECT_TRUE(chain.transmute("blocked", "0"));
  EXPECT_FALSE(chain.blocked());
  EXPECT_FALSE(chain.transmute("nonsense", "x"));
}

}  // namespace
}  // namespace sa::components
