#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inject/faulty_runtime.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace sa::sim {
namespace {

// --- Simulator ---------------------------------------------------------------

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(ms(30), [&] { order.push_back(3); });
  sim.schedule_at(ms(10), [&] { order.push_back(1); });
  sim.schedule_at(ms(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), ms(30));
}

TEST(Simulator, EqualTimestampsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(ms(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  Time fired_at = -1;
  sim.schedule_at(ms(10), [&] {
    sim.schedule_after(ms(5), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, ms(15));
}

TEST(Simulator, RejectsPastAndEmptyEvents) {
  Simulator sim;
  sim.schedule_at(ms(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(ms(5), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(ms(20), nullptr), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(ms(10), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double cancel
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_FALSE(sim.cancel(999));
}

TEST(Simulator, CancelFromInsideHandler) {
  Simulator sim;
  bool second_fired = false;
  const EventId second = sim.schedule_at(ms(20), [&] { second_fired = true; });
  sim.schedule_at(ms(10), [&] { sim.cancel(second); });
  sim.run();
  EXPECT_FALSE(second_fired);
}

TEST(Simulator, CancelAlreadyFiredIdFromHandlerAtSameTimestamp) {
  // Two events share a timestamp; the second tries to cancel the first from
  // inside its handler. The first has already executed (FIFO tie-break), so
  // the cancel must report false and must not disturb later events.
  Simulator sim;
  bool first_fired = false;
  bool later_fired = false;
  bool cancel_result = true;
  const EventId first = sim.schedule_at(ms(10), [&] { first_fired = true; });
  sim.schedule_at(ms(10), [&] { cancel_result = sim.cancel(first); });
  sim.schedule_at(ms(20), [&] { later_fired = true; });
  sim.run();
  EXPECT_TRUE(first_fired);
  EXPECT_FALSE(cancel_result);
  EXPECT_TRUE(later_fired);
}

TEST(Simulator, FifoTieBreakSurvivesInterleavedScheduleAndCancel) {
  // Schedule ten same-timestamp events, cancel the odd ones (interleaved with
  // fresh schedules at the same timestamp): survivors must still fire in
  // their original schedule order, with the late additions after them.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.schedule_at(ms(5), [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 10; i += 2) {
    EXPECT_TRUE(sim.cancel(ids[i]));
    sim.schedule_at(ms(5), [&order, i] { order.push_back(100 + i); });
  }
  sim.run();
  EXPECT_EQ(order,
            (std::vector<int>{0, 2, 4, 6, 8, 101, 103, 105, 107, 109}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<Time> fired;
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_at(ms(10 * i), [&fired, &sim] { fired.push_back(sim.now()); });
  }
  EXPECT_EQ(sim.run_until(ms(25)), 2U);
  EXPECT_EQ(sim.now(), ms(25));
  EXPECT_EQ(fired, (std::vector<Time>{ms(10), ms(20)}));
  EXPECT_EQ(sim.run_until(ms(100)), 3U);
}

TEST(Simulator, RunWithEventBudget) {
  Simulator sim;
  int count = 0;
  std::function<void()> reschedule = [&] {
    ++count;
    sim.schedule_after(ms(1), reschedule);
  };
  sim.schedule_after(ms(1), reschedule);
  EXPECT_EQ(sim.run(100), 100U);
  EXPECT_EQ(count, 100);
}

TEST(Simulator, PendingEventsCount) {
  Simulator sim;
  const EventId a = sim.schedule_at(ms(1), [] {});
  sim.schedule_at(ms(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2U);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1U);
}

// --- Network ---------------------------------------------------------------------

struct TextMsg final : Message {
  std::string text;
  explicit TextMsg(std::string t) : text(std::move(t)) {}
  std::string type_name() const override { return "text"; }
};

struct NetFixture : ::testing::Test {
  Simulator sim;
  Network net{sim, 1};
  NodeId a = net.add_node("a");
  NodeId b = net.add_node("b");
  std::vector<std::pair<NodeId, std::string>> received;

  void SetUp() override {
    net.set_handler(b, [this](NodeId from, MessagePtr msg) {
      received.emplace_back(from, dynamic_cast<const TextMsg&>(*msg).text);
    });
  }
};

TEST_F(NetFixture, DeliversWithLatency) {
  net.connect(a, b, ChannelConfig{ms(5), 0, 0.0, true});
  EXPECT_TRUE(net.send(a, b, std::make_shared<TextMsg>("hi")));
  EXPECT_TRUE(received.empty());
  sim.run();
  ASSERT_EQ(received.size(), 1U);
  EXPECT_EQ(received[0].first, a);
  EXPECT_EQ(received[0].second, "hi");
  EXPECT_EQ(sim.now(), ms(5));
}

TEST_F(NetFixture, MissingChannelThrows) {
  EXPECT_THROW(net.send(a, b, std::make_shared<TextMsg>("x")), std::out_of_range);
}

TEST_F(NetFixture, ChannelStatsOfMissingChannelThrowsNamingIt) {
  try {
    net.channel_stats(a, b);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("no channel a -> b"), std::string::npos) << e.what();
  }
}

TEST_F(NetFixture, FifoOrderingDespiteJitter) {
  net.connect(a, b, ChannelConfig{ms(5), ms(10), 0.0, /*fifo=*/true});
  for (int i = 0; i < 50; ++i) {
    net.send(a, b, std::make_shared<TextMsg>(std::to_string(i)));
  }
  sim.run();
  ASSERT_EQ(received.size(), 50U);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(received[i].second, std::to_string(i));
}

TEST_F(NetFixture, LossDropsSomeMessages) {
  net.connect(a, b, ChannelConfig{ms(1), 0, 0.5, true});
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    accepted += net.send(a, b, std::make_shared<TextMsg>("m"));
  }
  sim.run();
  EXPECT_EQ(received.size(), static_cast<std::size_t>(accepted));
  EXPECT_GT(accepted, 50);
  EXPECT_LT(accepted, 150);
  const ChannelStats& stats = net.channel_stats(a, b);
  EXPECT_EQ(stats.sent, 200U);
  EXPECT_EQ(stats.dropped_loss + stats.delivered, 200U);
}

TEST_F(NetFixture, LosslessByDefault) {
  net.connect(a, b);
  for (int i = 0; i < 100; ++i) net.send(a, b, std::make_shared<TextMsg>("m"));
  sim.run();
  EXPECT_EQ(received.size(), 100U);
}

// Partitions are injected by the fault decorator layered over this network
// (the same one every backend uses); the channel below never sees the send.
TEST_F(NetFixture, PartitionDropsEverything) {
  runtime::SimRuntime rt(sim, net);
  inject::FaultyRuntime faulty(rt, 1);
  inject::FaultyTransport& faults = faulty.faulty_transport();
  net.connect(a, b, ChannelConfig{ms(1), 0, 0.0, true});
  faults.partition_pair(a, b, true);
  EXPECT_FALSE(faults.send(a, b, std::make_shared<TextMsg>("lost")));
  sim.run();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(faults.stats().dropped_partition, 1U);
  EXPECT_EQ(net.channel_stats(a, b).sent, 0U);

  faults.partition_pair(a, b, false);
  EXPECT_TRUE(faults.send(a, b, std::make_shared<TextMsg>("healed")));
  sim.run();
  ASSERT_EQ(received.size(), 1U);
  EXPECT_EQ(received[0].second, "healed");
}

TEST_F(NetFixture, PartitionNodeCutsAllItsChannels) {
  runtime::SimRuntime rt(sim, net);
  inject::FaultyRuntime faulty(rt, 1);
  inject::FaultyTransport& faults = faulty.faulty_transport();
  const NodeId c = net.add_node("c");
  net.connect(a, b, {});
  net.connect(c, b, {});
  faults.partition_node(b, true);
  EXPECT_FALSE(faults.send(a, b, std::make_shared<TextMsg>("x")));
  EXPECT_FALSE(faults.send(c, b, std::make_shared<TextMsg>("y")));
}

TEST_F(NetFixture, TraceRecordsDeliveriesAndDrops) {
  net.connect(a, b, ChannelConfig{ms(1), 0, 0.0, true});
  net.set_tracing(true);
  net.send(a, b, std::make_shared<TextMsg>("one"));
  net.connect(a, b, ChannelConfig{ms(1), 0, /*loss=*/1.0, true});
  net.send(a, b, std::make_shared<TextMsg>("two"));
  sim.run();
  ASSERT_EQ(net.trace().size(), 2U);
  // The drop is recorded at send time, the delivery at arrival time.
  EXPECT_FALSE(net.trace()[0].delivered);
  EXPECT_TRUE(net.trace()[1].delivered);
  EXPECT_EQ(net.trace()[1].type, "text");
}

TEST_F(NetFixture, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim2;
    Network net2(sim2, seed);
    const NodeId x = net2.add_node("x");
    const NodeId y = net2.add_node("y");
    net2.set_handler(y, [](NodeId, MessagePtr) {});
    net2.connect(x, y, ChannelConfig{ms(1), ms(3), 0.3, false});
    std::string accepted_pattern;
    for (int i = 0; i < 100; ++i) {
      accepted_pattern += net2.send(x, y, std::make_shared<TextMsg>("m")) ? '1' : '0';
    }
    sim2.run();
    return accepted_pattern;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));  // overwhelmingly likely
}

TEST_F(NetFixture, DuplicationDeliversCopies) {
  ChannelConfig config{ms(1), 0, 0.0, true};
  config.duplicate_probability = 1.0;  // every message doubled
  net.connect(a, b, config);
  for (int i = 0; i < 10; ++i) net.send(a, b, std::make_shared<TextMsg>(std::to_string(i)));
  sim.run();
  EXPECT_EQ(received.size(), 20U);
  EXPECT_EQ(net.channel_stats(a, b).duplicated, 10U);
}

TEST_F(NetFixture, DuplicationPreservesFifoOrder) {
  ChannelConfig config{ms(2), ms(5), 0.0, /*fifo=*/true};
  config.duplicate_probability = 0.5;
  net.connect(a, b, config);
  for (int i = 0; i < 50; ++i) net.send(a, b, std::make_shared<TextMsg>(std::to_string(i)));
  sim.run();
  // With FIFO on, neither originals nor copies ever overtake later sends:
  // the values seen in arrival order are non-decreasing.
  int last = -1;
  for (const auto& [from, text] : received) {
    const int value = std::stoi(text);
    EXPECT_GE(value, last) << "duplicate/reordering violation";
    last = std::max(last, value);
  }
}

struct SizedMsg final : Message {
  std::size_t bytes;
  explicit SizedMsg(std::size_t b) : bytes(b) {}
  std::string type_name() const override { return "sized"; }
  std::size_t size_bytes() const override { return bytes; }
};

TEST_F(NetFixture, BandwidthDelaysLargeMessages) {
  ChannelConfig config{ms(1), 0, 0.0, true};
  config.bytes_per_second = 1000;  // 1 KB/s: a 500-byte message takes 500ms
  net.connect(a, b, config);
  net.set_handler(b, [this](NodeId from, MessagePtr) { received.emplace_back(from, ""); });
  net.send(a, b, std::make_shared<SizedMsg>(500));
  sim.run();
  EXPECT_EQ(sim.now(), ms(501));  // 500ms transmission + 1ms propagation
}

TEST_F(NetFixture, BandwidthSerializesBackToBackSends) {
  ChannelConfig config{ms(1), 0, 0.0, true};
  config.bytes_per_second = 1000;
  net.connect(a, b, config);
  std::vector<Time> arrivals;
  net.set_handler(b, [&](NodeId, MessagePtr) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 3; ++i) net.send(a, b, std::make_shared<SizedMsg>(100));
  sim.run();
  // 100ms per transmission, queued behind one another: 101, 201, 301.
  ASSERT_EQ(arrivals.size(), 3U);
  EXPECT_EQ(arrivals[0], ms(101));
  EXPECT_EQ(arrivals[1], ms(201));
  EXPECT_EQ(arrivals[2], ms(301));
}

TEST_F(NetFixture, UnlimitedBandwidthByDefault) {
  net.connect(a, b, ChannelConfig{ms(1), 0, 0.0, true});
  net.set_handler(b, [this](NodeId from, MessagePtr) { received.emplace_back(from, ""); });
  for (int i = 0; i < 3; ++i) net.send(a, b, std::make_shared<SizedMsg>(1'000'000));
  sim.run();
  EXPECT_EQ(sim.now(), ms(1));  // all arrive together
}

TEST_F(NetFixture, LinkBidirectionalCreatesBothChannels) {
  net.connect_bidirectional(a, b, {});
  EXPECT_TRUE(net.has_channel(a, b));
  EXPECT_TRUE(net.has_channel(b, a));
}


// --- Golden trace -------------------------------------------------------------

struct GoldenMsg final : Message {
  std::string type;
  std::size_t bytes;
  GoldenMsg(std::string t, std::size_t b) : type(std::move(t)), bytes(b) {}
  std::string type_name() const override { return type; }
  std::size_t size_bytes() const override { return bytes; }
};

/// FNV-1a over every entry's (time, from, to, type, delivered).
std::uint64_t trace_hash(const std::vector<TraceEntry>& trace) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  };
  for (const TraceEntry& e : trace) {
    mix(&e.time, sizeof e.time);
    mix(&e.from, sizeof e.from);
    mix(&e.to, sizeof e.to);
    mix(e.type.data(), e.type.size());
    const unsigned char delivered = e.delivered ? 1 : 0;
    mix(&delivered, 1);
  }
  return hash;
}

// Pins the simulated link model: one fixed-seed run whose channels exercise
// loss, jitter, duplication (with and without jitter), bandwidth
// serialization, FIFO and non-FIFO ordering, and replies sent from inside
// delivery handlers. Any change to the draw order or the arrival math moves
// the hash.
TEST(SimTraceGolden, FixedSeedTraceHash) {
  runtime::SimRuntime rt(2004);
  runtime::Transport& net = rt.transport();
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId c = net.add_node("c");

  ChannelConfig ab{ms(2), ms(3), 0.2, /*fifo=*/true};
  ab.duplicate_probability = 0.3;
  ab.bytes_per_second = 200'000;
  net.connect(a, b, ab);
  ChannelConfig ba{ms(1), ms(4), 0.1, /*fifo=*/false};
  ba.duplicate_probability = 0.25;
  net.connect(b, a, ba);
  ChannelConfig ac{ms(1), 0, 0.0, /*fifo=*/true};
  ac.duplicate_probability = 0.5;
  ac.bytes_per_second = 50'000;
  net.connect(a, c, ac);
  ChannelConfig cb{us(500), ms(2), 0.3, /*fifo=*/false};
  net.connect(c, b, cb);

  net.set_handler(b, [&](NodeId from, MessagePtr) {
    if (from == a) net.send(b, a, std::make_shared<GoldenMsg>("pong", 64));
  });
  net.set_handler(c, [&](NodeId, MessagePtr msg) {
    net.send(c, b, std::make_shared<GoldenMsg>("relay", msg->size_bytes() / 2));
  });
  net.set_handler(a, [](NodeId, MessagePtr) {});

  net.set_tracing(true);
  for (int i = 0; i < 200; ++i) {
    const std::size_t bytes = static_cast<std::size_t>((i * 37) % 1500 + 40);
    net.send(a, b, std::make_shared<GoldenMsg>("ping", bytes));
    if (i % 3 == 0) net.send(a, c, std::make_shared<GoldenMsg>("data", bytes * 2));
    rt.advance(us(700));
  }
  rt.simulator().run();

  const ChannelStats stats = net.channel_stats(a, b);
  EXPECT_GT(stats.dropped_loss, 0U);
  EXPECT_GT(stats.duplicated, 0U);
  EXPECT_EQ(net.trace().size(), 719U);
  EXPECT_EQ(trace_hash(net.trace()), 0x87c646334184435bULL) << std::hex << trace_hash(net.trace());
}

}  // namespace
}  // namespace sa::sim
