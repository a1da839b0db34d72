// Wire-format conformance for the distributed backend (socket_runtime /
// wire.hpp):
//
//   * every registered Message subtype survives encode_frame -> decode_frame
//     with all fields intact (the cross-process equivalent of "the codec
//     registry is total and lossless");
//   * truncated, bit-flipped, and random-garbage frames are rejected with
//     WireError — never UB (this test runs under the ASan CI job);
//   * registry misuse (unknown type, conflicting re-registration) is a
//     logic_error, while idempotent re-registration is accepted;
//   * SocketTransport delivers over real loopback sockets: UDP for small
//     frames, the TCP fallback for frames above max_datagram, FIFO
//     watermarks, partition drops, and the malformed-datagram counter.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "components/packet.hpp"
#include "inject/faulty_runtime.hpp"
#include "proto/messages.hpp"
#include "proto/wire_codecs.hpp"
#include "runtime/socket_runtime.hpp"
#include "runtime/wire.hpp"
#include "util/rng.hpp"
#include "video/server.hpp"
#include "video/wire_codecs.hpp"

namespace sa {
namespace {

using runtime::decode_frame;
using runtime::encode_frame;
using runtime::WireError;

class SocketWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::register_wire_codecs();
    video::register_wire_codecs();
  }
};

proto::StepRef make_step() {
  proto::StepRef step;
  step.request_id = 0x0123456789abcdefULL;
  step.plan = 3;
  step.step_index = 7;
  step.attempt = 2;
  return step;
}

/// Encodes at (from=1, to=2, incarnation=9, seq=42), decodes, checks the
/// header, and returns the decoded message downcast to T.
template <typename T>
std::shared_ptr<const T> round_trip(const T& msg) {
  const std::vector<std::uint8_t> frame = encode_frame(1, 2, 9, 42, msg);
  const runtime::WireFrame decoded = decode_frame(frame.data(), frame.size());
  EXPECT_EQ(decoded.from, 1u);
  EXPECT_EQ(decoded.to, 2u);
  EXPECT_EQ(decoded.incarnation, 9u);
  EXPECT_EQ(decoded.seq, 42u);
  EXPECT_NE(decoded.message, nullptr);
  EXPECT_EQ(decoded.message->type_name(), msg.type_name());
  auto typed = std::dynamic_pointer_cast<const T>(decoded.message);
  EXPECT_NE(typed, nullptr) << "decoded message has wrong dynamic type";
  return typed;
}

TEST_F(SocketWireTest, ResetRoundTrip) {
  proto::ResetMsg msg;
  msg.step = make_step();
  msg.command.remove = {"D4", "D1"};
  msg.command.add = {"D5", "D3", "E2"};
  msg.drain = true;
  msg.sole_participant = true;
  auto decoded = round_trip(msg);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->step, msg.step);
  EXPECT_EQ(decoded->command, msg.command);
  EXPECT_TRUE(decoded->drain);
  EXPECT_TRUE(decoded->sole_participant);
}

TEST_F(SocketWireTest, StepOnlyMessagesRoundTrip) {
  const proto::StepRef step = make_step();
  auto check = [&](auto msg) {
    msg.step = step;
    auto decoded = round_trip(msg);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->step, step);
    EXPECT_EQ(decoded->kind(), msg.kind());
  };
  check(proto::ResetDoneMsg{});
  check(proto::AdaptDoneMsg{});
  check(proto::ResumeMsg{});
  check(proto::RollbackMsg{});
  check(proto::RollbackDoneMsg{});
}

TEST_F(SocketWireTest, ResumeDoneCarriesBlockedTime) {
  proto::ResumeDoneMsg msg;
  msg.step = make_step();
  msg.blocked_for = runtime::ms(1234);
  auto decoded = round_trip(msg);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->step, msg.step);
  EXPECT_EQ(decoded->blocked_for, msg.blocked_for);
}

TEST_F(SocketWireTest, EpochCommitRoundTrip) {
  proto::EpochCommitMsg msg;
  msg.epoch = 17;
  msg.ctx.ticket = 0x1111;
  msg.ctx.epoch = 17;
  msg.ctx.parent_span = 0xdeadbeefULL;
  msg.targets.push_back({0, config::Configuration(0b0100101)});
  msg.targets.push_back({3, config::Configuration(0b1010010)});
  auto decoded = round_trip(msg);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->epoch, 17u);
  EXPECT_EQ(decoded->ctx, msg.ctx);
  ASSERT_EQ(decoded->targets.size(), 2u);
  EXPECT_EQ(decoded->targets[0], msg.targets[0]);
  EXPECT_EQ(decoded->targets[1], msg.targets[1]);
}

TEST_F(SocketWireTest, EpochDoneRoundTrip) {
  proto::EpochDoneMsg msg;
  msg.epoch = 9;
  msg.ctx.ticket = 5;
  proto::ShardOutcome ok;
  ok.shard = 1;
  ok.reported = true;
  ok.result.outcome = proto::AdaptationOutcome::Success;
  ok.result.final_config = config::Configuration(82);
  ok.result.steps_committed = 5;
  ok.result.step_failures = 1;
  ok.result.plans_tried = 2;
  ok.result.message_retries = 3;
  ok.result.started = runtime::ms(10);
  ok.result.finished = runtime::ms(250);
  ok.result.detail = "MAP A2, A17, A1, A16, A4";
  proto::ShardOutcome orphan;
  orphan.shard = 2;
  orphan.reported = false;
  orphan.result.outcome = proto::AdaptationOutcome::UserInterventionRequired;
  msg.outcomes = {ok, orphan};
  auto decoded = round_trip(msg);
  ASSERT_NE(decoded, nullptr);
  ASSERT_EQ(decoded->outcomes.size(), 2u);
  const proto::ShardOutcome& a = decoded->outcomes[0];
  EXPECT_EQ(a.shard, 1u);
  EXPECT_TRUE(a.reported);
  EXPECT_EQ(a.result.outcome, proto::AdaptationOutcome::Success);
  EXPECT_EQ(a.result.final_config.bits(), 82u);
  EXPECT_EQ(a.result.steps_committed, 5u);
  EXPECT_EQ(a.result.step_failures, 1u);
  EXPECT_EQ(a.result.plans_tried, 2u);
  EXPECT_EQ(a.result.message_retries, 3u);
  EXPECT_EQ(a.result.started, runtime::ms(10));
  EXPECT_EQ(a.result.finished, runtime::ms(250));
  EXPECT_EQ(a.result.detail, "MAP A2, A17, A1, A16, A4");
  const proto::ShardOutcome& b = decoded->outcomes[1];
  EXPECT_EQ(b.shard, 2u);
  EXPECT_FALSE(b.reported);
  EXPECT_EQ(b.result.outcome, proto::AdaptationOutcome::UserInterventionRequired);
}

TEST_F(SocketWireTest, VideoPacketRoundTrip) {
  video::PacketMsg msg;
  components::Payload payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  msg.packet = components::Packet::make(4, 99, payload);
  msg.packet.encoding_stack.push_back("des64");
  msg.packet.encoding_stack.push_back("fec:4");
  auto decoded = round_trip(msg);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->packet.stream_id, 4u);
  EXPECT_EQ(decoded->packet.sequence, 99u);
  EXPECT_EQ(decoded->packet.payload, payload);
  EXPECT_EQ(decoded->packet.plaintext_checksum, msg.packet.plaintext_checksum);
  ASSERT_EQ(decoded->packet.encoding_stack.size(), 2u);
  EXPECT_EQ(decoded->packet.encoding_stack[0], "des64");
  EXPECT_EQ(decoded->packet.encoding_stack[1], "fec:4");
}

// --- hostile input -----------------------------------------------------------

std::vector<std::uint8_t> sample_frame() {
  proto::ResetMsg msg;
  msg.step = make_step();
  msg.command.remove = {"D4"};
  msg.command.add = {"D5", "D3"};
  msg.drain = true;
  return encode_frame(1, 2, 9, 42, msg);
}

TEST_F(SocketWireTest, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> frame = sample_frame();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_THROW(decode_frame(frame.data(), len), WireError)
        << "prefix of length " << len << " was not rejected";
  }
  // The full frame still decodes (the loop above did not corrupt it).
  EXPECT_NO_THROW(decode_frame(frame.data(), frame.size()));
}

TEST_F(SocketWireTest, TrailingBytesAreRejected) {
  std::vector<std::uint8_t> frame = sample_frame();
  frame.push_back(0);
  EXPECT_THROW(decode_frame(frame.data(), frame.size()), WireError);
}

TEST_F(SocketWireTest, BadMagicVersionAndCodecAreRejected) {
  const std::vector<std::uint8_t> good = sample_frame();

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(decode_frame(bad_magic.data(), bad_magic.size()), WireError);

  std::vector<std::uint8_t> bad_version = good;
  bad_version[4] = runtime::kWireVersion + 1;
  EXPECT_THROW(decode_frame(bad_version.data(), bad_version.size()), WireError);

  std::vector<std::uint8_t> bad_codec = good;
  bad_codec[5] = 0xff;  // codec id low byte -> unregistered id
  bad_codec[6] = 0xff;
  EXPECT_THROW(decode_frame(bad_codec.data(), bad_codec.size()), WireError);
}

TEST_F(SocketWireTest, BitFlipFuzzNeverCrashes) {
  // Flip every single bit of a valid frame: decode must either succeed or
  // throw WireError. Anything else (another exception type, a crash, ASan
  // report) fails the test.
  const std::vector<std::uint8_t> good = sample_frame();
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutant = good;
      mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        (void)decode_frame(mutant.data(), mutant.size());
      } catch (const WireError&) {
        // expected rejection path
      }
    }
  }
}

TEST_F(SocketWireTest, RandomGarbageNeverCrashes) {
  util::Rng rng(0xfeedfaceULL);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> garbage(rng.next_below(200));
    for (std::uint8_t& b : garbage) b = static_cast<std::uint8_t>(rng.next_below(256));
    // Half the samples get a valid magic + version prefix so decoding reaches
    // the deeper header / payload validation paths.
    if (garbage.size() >= 5 && i % 2 == 0) {
      std::memcpy(garbage.data(), &runtime::kWireMagic, 4);
      garbage[4] = runtime::kWireVersion;
    }
    try {
      (void)decode_frame(garbage.data(), garbage.size());
    } catch (const WireError&) {
    }
  }
}

TEST_F(SocketWireTest, RegistryRejectsMisuse) {
  struct UnregisteredMsg final : runtime::Message {
    std::string type_name() const override { return "no-such-codec"; }
  };
  EXPECT_THROW(encode_frame(0, 1, 0, 0, UnregisteredMsg{}), std::logic_error);

  // Idempotent re-registration of an already-registered hook is a no-op...
  EXPECT_NO_THROW(proto::register_wire_codecs());
  EXPECT_NO_THROW(video::register_wire_codecs());
  // ...but claiming a taken id for a different type is a programming error.
  EXPECT_THROW(runtime::register_wire_codec(
                   1, "imposter", [](const runtime::Message&, runtime::WireWriter&) {},
                   [](runtime::WireReader&) -> runtime::MessagePtr { return nullptr; }),
               std::logic_error);
  EXPECT_TRUE(runtime::wire_codec_registered(1));
  EXPECT_FALSE(runtime::wire_codec_registered(0x7777));
}

// --- SocketTransport over real loopback sockets ------------------------------

/// Collects deliveries to one node, with a condition variable so tests can
/// wait for real network latency without sleeping blind.
class Inbox {
 public:
  runtime::ReceiveHandler handler() {
    return [this](runtime::NodeId from, runtime::MessagePtr msg) {
      std::lock_guard<std::mutex> lock(mutex_);
      received_.push_back({from, std::move(msg)});
      cv_.notify_all();
    };
  }

  bool wait_for_count(std::size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] { return received_.size() >= n; });
  }

  std::vector<std::pair<runtime::NodeId, runtime::MessagePtr>> snapshot() {
    std::lock_guard<std::mutex> lock(mutex_);
    return received_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::pair<runtime::NodeId, runtime::MessagePtr>> received_;
};

std::shared_ptr<proto::ResetDoneMsg> step_msg(std::uint32_t step_index) {
  auto msg = std::make_shared<proto::ResetDoneMsg>();
  msg->step.request_id = 1;
  msg->step.step_index = step_index;
  return msg;
}

/// Both endpoints hosted by one transport in this process — the sockets and
/// receiver thread are exactly the cross-process machinery, just loopback.
class SocketTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::register_wire_codecs();
    video::register_wire_codecs();
    runtime::SocketTransportOptions options;
    options.topology = {{"alpha", 0}, {"beta", 0}};
    options.local = {0, 1};
    options.seed = 7;
    transport = std::make_unique<runtime::SocketTransport>(std::move(options));
    a = transport->add_node("alpha", inbox_a.handler());
    b = transport->add_node("beta", inbox_b.handler());
    transport->connect_bidirectional(a, b);
  }

  std::unique_ptr<runtime::SocketTransport> transport;
  Inbox inbox_a, inbox_b;
  runtime::NodeId a = 0, b = 0;
};

TEST_F(SocketTransportTest, DeliversSmallFramesOverUdp) {
  ASSERT_TRUE(transport->send(a, b, step_msg(1)));
  ASSERT_TRUE(transport->send(a, b, step_msg(2)));
  ASSERT_TRUE(inbox_b.wait_for_count(2, std::chrono::seconds(5)));
  auto received = inbox_b.snapshot();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].first, a);
  auto first = std::dynamic_pointer_cast<const proto::ResetDoneMsg>(received[0].second);
  auto second = std::dynamic_pointer_cast<const proto::ResetDoneMsg>(received[1].second);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  // FIFO channel contract holds over the wire.
  EXPECT_EQ(first->step.step_index, 1u);
  EXPECT_EQ(second->step.step_index, 2u);
  const runtime::ChannelStats stats = transport->channel_stats(a, b);
  EXPECT_EQ(stats.sent, 2u);
  EXPECT_EQ(stats.delivered, 2u);
}

TEST_F(SocketTransportTest, ChannelStatsOfMissingChannelThrowsNamingIt) {
  try {
    transport->channel_stats(a, a);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("no channel alpha -> alpha"), std::string::npos)
        << e.what();
  }
}

TEST_F(SocketTransportTest, LargeFramesUseTcpFallback) {
  auto msg = std::make_shared<video::PacketMsg>();
  components::Payload payload(200'000);  // far above max_datagram = 60'000
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  msg->packet = components::Packet::make(1, 5, payload);
  ASSERT_TRUE(transport->send(a, b, msg));
  ASSERT_TRUE(inbox_b.wait_for_count(1, std::chrono::seconds(5)));
  auto received = inbox_b.snapshot();
  auto packet = std::dynamic_pointer_cast<const video::PacketMsg>(received[0].second);
  ASSERT_NE(packet, nullptr);
  EXPECT_EQ(packet->packet.payload, payload);
  EXPECT_TRUE(packet->packet.intact());
}

// Faults over sockets come from the same decorator every backend uses; the
// cut drops at the sender, before a frame is ever encoded.
TEST_F(SocketTransportTest, PartitionDropsInsteadOfDelivering) {
  runtime::ThreadedClock clock;
  inject::FaultyTransport faults(*transport, clock, 7);
  faults.partition_node(b, true);
  // send() reports the drop (false), mirroring the other backends' contract,
  // and one process's window cuts both directions.
  EXPECT_FALSE(faults.send(a, b, step_msg(1)));
  EXPECT_FALSE(faults.send(b, a, step_msg(1)));
  EXPECT_FALSE(inbox_b.wait_for_count(1, std::chrono::milliseconds(200)));
  EXPECT_EQ(inbox_a.snapshot().size(), 0u);
  EXPECT_EQ(faults.stats().dropped_partition, 2u);
  EXPECT_EQ(transport->channel_stats(a, b).sent, 0u);

  faults.partition_node(b, false);
  ASSERT_TRUE(faults.send(a, b, step_msg(2)));
  ASSERT_TRUE(inbox_b.wait_for_count(1, std::chrono::seconds(5)));
  auto received = inbox_b.snapshot();
  auto msg = std::dynamic_pointer_cast<const proto::ResetDoneMsg>(received[0].second);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->step.step_index, 2u);
}

TEST_F(SocketTransportTest, DuplicationDeliversExtraCopies) {
  runtime::ThreadedClock clock;
  inject::FaultyTransport faults(*transport, clock, 7);
  faults.set_extra_duplication(1.0);  // every frame sent twice
  ASSERT_TRUE(faults.send(a, b, step_msg(1)));
  ASSERT_TRUE(inbox_b.wait_for_count(2, std::chrono::seconds(5)));
  faults.set_extra_duplication(0.0);
  // Duplicates carry fresh sequence numbers, so the FIFO watermark passes
  // both through — deduplication is the protocol drivers' job (by StepRef).
  EXPECT_GE(inbox_b.snapshot().size(), 2u);
}

TEST_F(SocketTransportTest, MalformedDatagramsAreCountedAndDropped) {
  // Throw raw garbage at the node's real UDP port; the receiver must count it
  // as malformed and keep serving well-formed traffic.
  const std::uint16_t port = transport->local_port(b);
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const char garbage[] = "definitely not a SADP frame";
  ASSERT_GT(::sendto(fd, garbage, sizeof(garbage), 0,
                     reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);

  ASSERT_TRUE(transport->send(a, b, step_msg(7)));
  ASSERT_TRUE(inbox_b.wait_for_count(1, std::chrono::seconds(5)));
  // The garbage datagram raced the real one; poll until the counter settles.
  for (int i = 0; i < 500 && transport->malformed_frames() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(transport->malformed_frames(), 1u);
  auto received = inbox_b.snapshot();
  ASSERT_EQ(received.size(), 1u);
  auto msg = std::dynamic_pointer_cast<const proto::ResetDoneMsg>(received[0].second);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->step.step_index, 7u);
}

TEST_F(SocketTransportTest, TraceRecordsWallClockDeliveries) {
  transport->set_tracing(true);
  const runtime::Time before = runtime::wall_clock_us();
  ASSERT_TRUE(transport->send(a, b, step_msg(1)));
  ASSERT_TRUE(inbox_b.wait_for_count(1, std::chrono::seconds(5)));
  transport->set_tracing(false);
  const runtime::Time after = runtime::wall_clock_us();
  const std::vector<runtime::TraceEntry>& trace = transport->trace();
  ASSERT_FALSE(trace.empty());
  const runtime::TraceEntry& entry = trace.back();
  EXPECT_EQ(entry.from, a);
  EXPECT_EQ(entry.to, b);
  EXPECT_EQ(entry.type, "reset done");
  EXPECT_TRUE(entry.delivered);
  EXPECT_GE(entry.time, before);
  EXPECT_LE(entry.time, after);
}

}  // namespace
}  // namespace sa
