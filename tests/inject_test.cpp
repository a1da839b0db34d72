// Unit tests for the fault-injection building blocks: FaultPlan (validation,
// JSON round-trip, deterministic generation) and the FaultyTransport /
// FaultyClock decorators' semantics on the simulated and the threaded
// backend — partition drops at send while in-flight messages survive, crash
// additionally kills in-flight deliveries, extra loss/duplication layer on
// top of the inner transport, and timer skew scales scheduled delays — plus
// the decorator under real concurrency (FaultyRuntimeThreaded.*).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "inject/fault_plan.hpp"
#include "inject/faulty_runtime.hpp"
#include "proto/conformance.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/threaded_runtime.hpp"

namespace sa::inject {
namespace {

// --- FaultPlan ---------------------------------------------------------------

FaultPlan sample_plan() {
  FaultPlan plan;
  plan.events.push_back({FaultKind::Loss, 0, runtime::ms(10), 0, 0.3, 1.0});
  plan.events.push_back({FaultKind::Duplicate, runtime::ms(5), runtime::ms(20), 0, 0.8, 1.0});
  plan.events.push_back({FaultKind::PartitionNode, 100, 200, 1, 0.0, 1.0});
  plan.events.push_back({FaultKind::PartitionPair, 100, 200, 2, 0.0, 1.0});
  plan.events.push_back({FaultKind::Crash, 0, runtime::seconds(1), 0, 0.0, 1.0});
  plan.events.push_back({FaultKind::FailToReset, 50, 60, 1, 0.0, 1.0});
  plan.events.push_back({FaultKind::TimerSkew, 0, runtime::ms(100), 0, 0.0, 2.5});
  return plan;
}

TEST(FaultPlanTest, KindNamesRoundTrip) {
  for (const FaultKind kind :
       {FaultKind::Loss, FaultKind::Duplicate, FaultKind::PartitionNode,
        FaultKind::PartitionPair, FaultKind::Crash, FaultKind::FailToReset,
        FaultKind::TimerSkew}) {
    EXPECT_EQ(fault_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(fault_kind_from_string("meteor-strike"), std::invalid_argument);
}

TEST(FaultPlanTest, JsonRoundTripPreservesEveryKind) {
  const FaultPlan plan = sample_plan();
  const FaultPlan back = plan_from_json(to_json(plan));
  EXPECT_EQ(back, plan);
}

TEST(FaultPlanTest, ValidateRejectsMalformedWindows) {
  FaultPlan plan;
  plan.events.push_back({FaultKind::Loss, 10, 10, 0, 0.5, 1.0});  // empty window
  EXPECT_THROW(validate(plan), std::invalid_argument);
  plan.events[0] = {FaultKind::Loss, -1, 10, 0, 0.5, 1.0};  // negative start
  EXPECT_THROW(validate(plan), std::invalid_argument);
  plan.events[0] = {FaultKind::Loss, 0, 10, 0, std::nan(""), 1.0};
  EXPECT_THROW(validate(plan), std::invalid_argument);
  plan.events[0] = {FaultKind::Duplicate, 0, 10, 0, 1.5, 1.0};
  EXPECT_THROW(validate(plan), std::invalid_argument);
  plan.events[0] = {FaultKind::TimerSkew, 0, 10, 0, 0.0, 0.0};  // zero factor
  EXPECT_THROW(validate(plan), std::invalid_argument);
  plan.events[0] = {FaultKind::TimerSkew, 0, 10, 0, 0.0, -2.0};
  EXPECT_THROW(validate(plan), std::invalid_argument);
}

TEST(FaultPlanTest, FromJsonRejectsGarbage) {
  EXPECT_THROW(plan_from_json("{\"not\": \"an array\"}"), std::runtime_error);
  EXPECT_THROW(plan_from_json("[42]"), std::runtime_error);
  EXPECT_THROW(plan_from_json("[{\"start\": 0, \"end\": 5}]"), std::runtime_error);
  EXPECT_THROW(plan_from_json("[{\"kind\": \"loss\", \"start\": 5, \"end\": 2}]"),
               std::invalid_argument);
}

TEST(FaultPlanTest, GeneratorIsDeterministicInTheSeed) {
  PlanShape shape;
  shape.processes = {0, 1, 2};
  util::Rng a(1234);
  util::Rng b(1234);
  util::Rng c(1235);
  const FaultPlan first = generate_plan(a, shape);
  EXPECT_EQ(first, generate_plan(b, shape));
  // A neighbouring seed should (for this seed pair) give a different plan.
  EXPECT_NE(first, generate_plan(c, shape));
  EXPECT_NO_THROW(validate(first));
  EXPECT_GE(first.events.size(), 1u);
  EXPECT_LE(first.events.size(), shape.max_events);
}

TEST(FaultPlanTest, GeneratedPlansAreAlwaysValid) {
  PlanShape shape;
  shape.processes = {0, 1, 2};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::Rng rng(seed);
    EXPECT_NO_THROW(validate(generate_plan(rng, shape))) << "seed " << seed;
  }
}

// --- decorator semantics -----------------------------------------------------
//
// Every case runs once per backend under the decorator: the deterministic
// simulator, then real threads. On the threaded backend latencies and waits
// are stretched by `scale` so "in flight" and "not yet fired" hold on a
// loaded machine, and "arrives by t" becomes "arrives eventually".

struct TestMessage final : runtime::Message {
  std::string type_name() const override { return "test"; }
};

runtime::MessagePtr msg() { return std::make_shared<TestMessage>(); }

/// The decorator over one backend, with endpoints a -> b connected.
struct DecoratedBackend {
  std::unique_ptr<runtime::Runtime> inner;
  runtime::ThreadedRuntime* threaded = nullptr;
  runtime::Time scale = 1;
  std::unique_ptr<FaultyRuntime> frt;
  runtime::NodeId a = 0, b = 0;
  std::atomic<int> delivered_to_b{0};

  explicit DecoratedBackend(bool use_threads) {
    if (use_threads) {
      auto rt = std::make_unique<runtime::ThreadedRuntime>(
          runtime::ThreadedRuntimeOptions{.workers = 2, .seed = 1});
      threaded = rt.get();
      inner = std::move(rt);
      scale = 20;
    } else {
      inner = std::make_unique<runtime::SimRuntime>(1);
    }
    frt = std::make_unique<FaultyRuntime>(*inner, 2);
    a = net().add_node("a");
    b = net().add_node("b", [this](runtime::NodeId, runtime::MessagePtr) { ++delivered_to_b; });
    net().connect_bidirectional(a, b, runtime::ChannelConfig{runtime::ms(1) * scale});
  }
  ~DecoratedBackend() {
    if (threaded != nullptr) threaded->shutdown();
  }

  FaultyTransport& net() { return frt->faulty_transport(); }
  runtime::Time t(runtime::Time sim_time) const { return sim_time * scale; }
  /// Lets everything in flight land.
  void run() { frt->advance(t(runtime::ms(10))); }
  /// Sim: `done` holds after advancing `by`. Threads: it holds eventually.
  bool holds_by(runtime::Time by, const std::function<bool()>& done) {
    if (threaded != nullptr) return frt->wait_until(done, SIZE_MAX);
    frt->advance(by);
    return done();
  }
};

struct DecoratorFixture : ::testing::Test {
  void each_backend(const std::function<void(DecoratedBackend&)>& body) {
    for (const bool use_threads : {false, true}) {
      SCOPED_TRACE(use_threads ? "threaded backend" : "sim backend");
      DecoratedBackend backend(use_threads);
      body(backend);
    }
  }
};

TEST_F(DecoratorFixture, CleanSendDelivers) {
  each_backend([](DecoratedBackend& x) {
    EXPECT_TRUE(x.net().send(x.a, x.b, msg()));
    EXPECT_TRUE(x.holds_by(x.t(runtime::ms(10)), [&x] { return x.delivered_to_b == 1; }));
  });
}

TEST_F(DecoratorFixture, PartitionDropsAtSendButInFlightArrives) {
  each_backend([](DecoratedBackend& x) {
    FaultyTransport& net = x.net();
    EXPECT_TRUE(net.send(x.a, x.b, msg()));  // in flight when the partition opens
    net.partition_node(x.b, true);
    EXPECT_FALSE(net.send(x.a, x.b, msg()));  // dropped at send
    x.run();
    EXPECT_EQ(x.delivered_to_b, 1) << "in-flight message must survive a link partition";
    EXPECT_EQ(net.stats().dropped_partition, 1u);

    net.partition_node(x.b, false);
    EXPECT_TRUE(net.send(x.a, x.b, msg()));
    EXPECT_TRUE(x.holds_by(x.t(runtime::ms(10)), [&x] { return x.delivered_to_b == 2; }));
  });
}

TEST_F(DecoratorFixture, PartitionPairCutsBothDirections) {
  each_backend([](DecoratedBackend& x) {
    FaultyTransport& net = x.net();
    net.partition_pair(x.a, x.b, true);
    EXPECT_FALSE(net.send(x.a, x.b, msg()));
    EXPECT_FALSE(net.send(x.b, x.a, msg()));
    EXPECT_EQ(net.stats().dropped_partition, 2u);
    net.partition_pair(x.b, x.a, false);  // order-insensitive (normalized pair)
    EXPECT_TRUE(net.send(x.a, x.b, msg()));
    EXPECT_TRUE(x.holds_by(x.t(runtime::ms(10)), [&x] { return x.delivered_to_b == 1; }));
  });
}

TEST_F(DecoratorFixture, CrashDropsInFlightDeliveries) {
  each_backend([](DecoratedBackend& x) {
    FaultyTransport& net = x.net();
    EXPECT_TRUE(net.send(x.a, x.b, msg()));  // in flight when the node crashes
    net.set_crashed(x.b, true);
    x.run();
    EXPECT_EQ(x.delivered_to_b, 0) << "a crashed node must not receive in-flight messages";
    EXPECT_EQ(net.stats().dropped_crash_delivery, 1u);

    EXPECT_FALSE(net.send(x.a, x.b, msg()));  // unreachable while down
    EXPECT_EQ(net.stats().dropped_crash_send, 1u);

    net.set_crashed(x.b, false);  // restart: reachable again
    EXPECT_TRUE(net.send(x.a, x.b, msg()));
    EXPECT_TRUE(x.holds_by(x.t(runtime::ms(10)), [&x] { return x.delivered_to_b == 1; }));
  });
}

TEST_F(DecoratorFixture, ExtraLossAndDuplicationWindows) {
  each_backend([](DecoratedBackend& x) {
    FaultyTransport& net = x.net();
    net.set_extra_loss(1.0);
    EXPECT_FALSE(net.send(x.a, x.b, msg()));
    x.run();
    EXPECT_EQ(x.delivered_to_b, 0);
    EXPECT_EQ(net.stats().dropped_loss, 1u);

    net.set_extra_loss(0.0);
    net.set_extra_duplication(1.0);
    EXPECT_TRUE(net.send(x.a, x.b, msg()));
    EXPECT_TRUE(x.holds_by(x.t(runtime::ms(10)), [&x] { return x.delivered_to_b == 2; }))
        << "p=1 duplication must deliver a trailing copy";
    EXPECT_EQ(net.stats().duplicated, 1u);
  });
}

TEST_F(DecoratorFixture, DecoratorTraceRecordsWhatTheProtocolObserved) {
  each_backend([](DecoratedBackend& x) {
    FaultyTransport& net = x.net();
    net.set_tracing(true);
    EXPECT_TRUE(net.send(x.a, x.b, msg()));
    net.set_crashed(x.b, true);
    x.run();
    net.set_crashed(x.b, false);
    EXPECT_TRUE(net.send(x.a, x.b, msg()));
    ASSERT_TRUE(x.holds_by(x.t(runtime::ms(10)), [&x] { return x.delivered_to_b == 1; }));
    ASSERT_EQ(net.trace().size(), 2u);
    EXPECT_FALSE(net.trace()[0].delivered);  // died at the crashed doorstep
    EXPECT_TRUE(net.trace()[1].delivered);
    net.clear_trace();
    EXPECT_TRUE(net.trace().empty());
  });
}

TEST_F(DecoratorFixture, TimerSkewScalesScheduledDelays) {
  each_backend([](DecoratedBackend& x) {
    FaultyRuntime& frt = *x.frt;
    std::atomic<int> fired{0};
    frt.faulty_clock().set_skew(2.0);
    frt.clock().schedule_after(x.t(runtime::ms(10)), [&fired] { ++fired; });
    frt.faulty_clock().set_skew(1.0);
    frt.advance(x.t(runtime::ms(15)));
    EXPECT_EQ(fired, 0) << "a 10ms delay under 2x skew must not fire at 15ms";
    EXPECT_TRUE(x.holds_by(x.t(runtime::ms(10)), [&fired] { return fired == 1; }));

    // The campaign's own bookkeeping goes through the unskewed inner clock.
    std::atomic<int> inner_fired{0};
    frt.faulty_clock().set_skew(4.0);
    frt.faulty_clock().inner().schedule_after(x.t(runtime::ms(10)),
                                              [&inner_fired] { ++inner_fired; });
    EXPECT_TRUE(x.holds_by(x.t(runtime::ms(12)), [&inner_fired] { return inner_fired == 1; }))
        << "plan window edges must never be skewed";
    frt.faulty_clock().set_skew(1.0);
  });
}

// --- the decorator under real concurrency --------------------------------------

TEST(FaultyRuntimeThreaded, ConcurrentSendersWhileWindowsToggleAddUp) {
  runtime::ThreadedRuntime rt({.workers = 4, .seed = 5});
  FaultyRuntime frt(rt, 6);
  FaultyTransport& net = frt.faulty_transport();
  std::atomic<std::uint64_t> received{0};
  const runtime::NodeId sink =
      net.add_node("sink", [&received](runtime::NodeId, runtime::MessagePtr) { ++received; });
  std::vector<runtime::NodeId> senders;
  for (int i = 0; i < 4; ++i) {
    senders.push_back(net.add_node("sender" + std::to_string(i)));
    net.connect(senders.back(), sink, runtime::ChannelConfig{runtime::us(50)});
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> pool;
  for (const runtime::NodeId from : senders) {
    pool.emplace_back([&, from] {
      while (!stop.load()) {
        ++attempted;
        if (net.send(from, sink, msg())) ++accepted;
      }
    });
  }
  // Each window configuration stays in force for a few sends from the pool.
  for (int round = 0; round < 400; ++round) {
    const runtime::NodeId victim = senders[static_cast<std::size_t>(round) % senders.size()];
    net.partition_node(victim, round % 3 == 0);
    net.partition_pair(victim, sink, round % 5 == 1);
    net.set_extra_loss(round % 2 == 0 ? 0.25 : 0.0);
    net.set_extra_duplication(round % 4 == 1 ? 0.5 : 0.0);
    const std::uint64_t start = attempted.load();
    while (attempted.load() < start + 16) std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : pool) t.join();

  const FaultyTransport::Stats stats = net.stats();
  EXPECT_EQ(accepted + stats.dropped_loss + stats.dropped_partition, attempted);
  EXPECT_GT(stats.dropped_loss, 0u);
  EXPECT_GT(stats.dropped_partition, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  // The inner link is lossless: every accepted send and every copy lands.
  EXPECT_TRUE(rt.wait_until([&] { return received == accepted + stats.duplicated; }));
  rt.shutdown();
  EXPECT_EQ(received, accepted + stats.duplicated);
}

TEST(FaultyRuntimeThreaded, DetachWaitsForTheRunningHandler) {
  runtime::ThreadedRuntime rt({.workers = 2, .seed = 3});
  FaultyRuntime frt(rt, 4);
  runtime::Transport& net = frt.transport();
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  const runtime::NodeId a = net.add_node("a");
  const runtime::NodeId b = net.add_node("b", [&](runtime::NodeId, runtime::MessagePtr) {
    entered = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    finished = true;
  });
  net.connect(a, b, runtime::ChannelConfig{runtime::us(100)});
  ASSERT_TRUE(net.send(a, b, msg()));
  ASSERT_TRUE(rt.wait_until([&] { return entered.load(); }));
  net.set_handler(b, nullptr);
  EXPECT_TRUE(finished) << "detach returned while the endpoint's handler was running";
  rt.shutdown();
}

struct StubProcess final : proto::AdaptableProcess {
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override { return true; }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override {}
};

TEST(FaultyRuntimeThreaded, PaperMapUnderPartitionPairWindowConforms) {
  runtime::ThreadedRuntime rt({.workers = 4, .seed = 21});
  FaultyRuntime frt(rt, 22);
  core::SystemConfig config;
  config.seed = 21;
  core::SafeAdaptationSystem system(frt, config);
  StubProcess server, handheld, laptop;
  core::configure_paper_system(system);
  system.attach_process(core::kServerProcess, server, 0);
  system.attach_process(core::kHandheldProcess, handheld, 1);
  system.attach_process(core::kLaptopProcess, laptop, 1);
  system.finalize();
  system.set_current_configuration(core::paper_source(system.registry()));
  frt.faulty_transport().set_tracing(true);

  FaultPlan plan;
  plan.events.push_back(
      {FaultKind::PartitionPair, 0, runtime::ms(60), core::kHandheldProcess, 0.0, 1.0});
  arm_plan(plan, frt,
           PlanTargets{[&system](config::ProcessId process) {
                         return std::pair{system.manager_node(), system.agent_node(process)};
                       },
                       nullptr});
  const proto::AdaptationResult result =
      system.adapt_and_wait(core::paper_target(system.registry()));
  rt.advance(runtime::ms(80));  // past the window's close
  rt.shutdown();

  EXPECT_GE(frt.faulty_transport().stats().dropped_partition, 1u);
  EXPECT_TRUE(system.invariants().satisfied(result.final_config));
  EXPECT_EQ(system.current_configuration(), result.final_config);
  const auto violations =
      proto::check_trace(frt.faulty_transport().trace(), {system.manager_node()});
  for (const auto& v : violations) ADD_FAILURE() << v.time << ": " << v.description;
}

}  // namespace
}  // namespace sa::inject
