#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "inject/faulty_runtime.hpp"
#include "proto/conformance.hpp"
#include "proto/manager.hpp"
#include "runtime/threaded_runtime.hpp"

namespace sa::runtime {
namespace {

// --- Clock ------------------------------------------------------------------

TEST(ThreadedClock, TimersFireInDeadlineOrder) {
  ThreadedClock clock;
  std::mutex mutex;
  std::vector<int> order;
  std::atomic<int> fired{0};
  const auto record = [&](int id) {
    std::lock_guard lock(mutex);
    order.push_back(id);
    ++fired;
  };
  clock.schedule_after(ms(30), [&] { record(3); });
  clock.schedule_after(ms(10), [&] { record(1); });
  clock.schedule_after(ms(20), [&] { record(2); });
  while (fired.load() < 3) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  clock.stop();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadedClock, CancelPreventsFiringAndReportsUnknownIds) {
  ThreadedClock clock;
  std::atomic<bool> cancelled_fired{false};
  std::atomic<bool> sentinel_fired{false};
  const TimerId id = clock.schedule_after(ms(20), [&] { cancelled_fired = true; });
  EXPECT_TRUE(clock.cancel(id));
  EXPECT_FALSE(clock.cancel(id));  // already cancelled
  EXPECT_FALSE(clock.cancel(0));   // never issued
  clock.schedule_after(ms(40), [&] { sentinel_fired = true; });
  while (!sentinel_fired.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  clock.stop();
  EXPECT_FALSE(cancelled_fired.load());
}

TEST(ThreadedClock, EqualDeadlinesFireInScheduleOrder) {
  ThreadedClock clock;
  std::mutex mutex;
  std::vector<int> order;
  std::atomic<int> fired{0};
  const Time deadline = clock.now() + ms(25);
  for (int i = 0; i < 8; ++i) {
    clock.schedule_at(deadline, [&, i] {
      std::lock_guard lock(mutex);
      order.push_back(i);
      ++fired;
    });
  }
  while (fired.load() < 8) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  clock.stop();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadedClock, ScheduleAfterStopDropsTimerAndReturnsZero) {
  ThreadedClock clock;
  clock.stop();
  std::atomic<bool> fired{false};
  // Matches ThreadedExecutor::post: late work is dropped, and the caller can
  // tell (id 0) rather than holding an id that will never fire or cancel.
  EXPECT_EQ(clock.schedule_after(ms(1), [&] { fired = true; }), 0U);
  EXPECT_EQ(clock.schedule_at(clock.now(), [&] { fired = true; }), 0U);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(fired.load());
}

// --- Executor ---------------------------------------------------------------

TEST(ThreadedExecutor, SingleWorkerRunsTasksInPostingOrder) {
  std::vector<int> order;
  {
    ThreadedExecutor executor(1);
    for (int i = 0; i < 32; ++i) {
      executor.post([&order, i] { order.push_back(i); });
    }
    executor.stop();  // drains the queue before joining
  }
  std::vector<int> expected(32);
  for (int i = 0; i < 32; ++i) expected[i] = i;
  EXPECT_EQ(order, expected);
}

TEST(ThreadedRuntimeWait, WakesWhenAPostedTaskSetsDone) {
  ThreadedRuntimeOptions options;
  options.wait_poll_interval = seconds(1);
  ThreadedRuntime rt(options);
  std::atomic<bool> done{false};
  rt.executor().post([&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    done.store(true);
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(rt.wait_until([&done] { return done.load(); }));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(500));
}

TEST(ThreadedRuntimeWait, WakesWhenATimerCallbackSetsDone) {
  ThreadedRuntimeOptions options;
  options.wait_poll_interval = seconds(1);
  ThreadedRuntime rt(options);
  std::atomic<bool> done{false};
  rt.clock().schedule_after(ms(20), [&done] { done.store(true); });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(rt.wait_until([&done] { return done.load(); }));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(500));
}

// --- Transport --------------------------------------------------------------

struct PingMsg final : Message {
  int value = 0;
  std::string type_name() const override { return "ping"; }
};

TEST(ThreadedTransport, DeliversInSendOrderOverFifoChannel) {
  ThreadedRuntime rt({.workers = 4, .seed = 7});
  Transport& net = rt.transport();
  const NodeId a = net.add_node("a");
  std::mutex mutex;
  std::vector<int> received;
  std::atomic<int> count{0};
  const NodeId b = net.add_node("b", [&](NodeId, MessagePtr message) {
    const auto& ping = dynamic_cast<const PingMsg&>(*message);
    std::lock_guard lock(mutex);
    received.push_back(ping.value);
    ++count;
  });
  net.connect(a, b, ChannelConfig{ms(1), /*jitter=*/us(500), 0.0, /*fifo=*/true});
  for (int i = 0; i < 24; ++i) {
    auto msg = std::make_shared<PingMsg>();
    msg->value = i;
    EXPECT_TRUE(net.send(a, b, msg));
  }
  EXPECT_TRUE(rt.wait_until([&] { return count.load() == 24; }));
  rt.shutdown();
  std::vector<int> expected(24);
  for (int i = 0; i < 24; ++i) expected[i] = i;
  EXPECT_EQ(received, expected);
  const ChannelStats stats = net.channel_stats(a, b);
  EXPECT_EQ(stats.sent, 24U);
  EXPECT_EQ(stats.delivered, 24U);
}

TEST(ThreadedTransport, ChannelStatsOfMissingChannelThrowsNamingIt) {
  ThreadedRuntime rt({.workers = 1, .seed = 7});
  Transport& net = rt.transport();
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.connect(a, b);
  try {
    net.channel_stats(b, a);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("no channel b -> a"), std::string::npos) << e.what();
  }
  rt.shutdown();
}

TEST(ThreadedTransport, FifoOrderSurvivesConcurrentSenders) {
  ThreadedRuntime rt({.workers = 4, .seed = 11});
  Transport& net = rt.transport();
  const NodeId a = net.add_node("a");
  std::mutex mutex;
  std::vector<int> received;
  std::atomic<int> count{0};
  const NodeId b = net.add_node("b", [&](NodeId, MessagePtr message) {
    const auto& ping = dynamic_cast<const PingMsg&>(*message);
    std::lock_guard lock(mutex);
    received.push_back(ping.value);
    ++count;
  });
  // Zero latency maximizes FIFO-clamp collisions: concurrent senders get
  // equal arrival times and only the schedule-order tie-break separates them.
  net.connect(a, b, ChannelConfig{0, 0, 0.0, /*fifo=*/true});

  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto msg = std::make_shared<PingMsg>();
        msg->value = t * kPerThread + i;
        net.send(a, b, msg);
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  EXPECT_TRUE(rt.wait_until([&] { return count.load() == kThreads * kPerThread; }));
  rt.shutdown();

  // The channel serializes racing sends in clamp order, so each sender's own
  // messages must arrive in the order it sent them.
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<int> last_seen(kThreads, -1);
  for (const int value : received) {
    const int thread = value / kPerThread;
    EXPECT_LT(last_seen[thread], value % kPerThread)
        << "per-sender order violated for sender " << thread;
    last_seen[thread] = value % kPerThread;
  }
}

TEST(ThreadedTransport, LossAndPartitionDropMessages) {
  ThreadedRuntime rt;
  inject::FaultyRuntime faulty(rt, 7);
  inject::FaultyTransport& net = faulty.faulty_transport();
  const NodeId a = net.add_node("a");
  std::atomic<int> count{0};
  const NodeId b = net.add_node("b", [&](NodeId, MessagePtr) { ++count; });
  net.connect(a, b, ChannelConfig{us(100), 0, /*loss=*/1.0, true});
  EXPECT_FALSE(net.send(a, b, std::make_shared<PingMsg>()));  // the link loses it
  net.connect(a, b, ChannelConfig{us(100), 0, /*loss=*/0.0, true});
  net.partition_pair(a, b, true);
  EXPECT_FALSE(net.send(a, b, std::make_shared<PingMsg>()));  // the decorator cuts it
  net.partition_pair(a, b, false);
  EXPECT_TRUE(net.send(a, b, std::make_shared<PingMsg>()));
  EXPECT_TRUE(rt.wait_until([&] { return count.load() == 1; }));
  rt.shutdown();
  const ChannelStats stats = net.channel_stats(a, b);
  EXPECT_EQ(stats.sent, 1U);  // the reconnect reset the link's counters
  EXPECT_EQ(stats.delivered, 1U);
  EXPECT_EQ(net.stats().dropped_partition, 1U);
}

// --- End-to-end: the paper's 5-step MAP on real threads ---------------------

struct StubProcess : proto::AdaptableProcess {
  std::atomic<int> applies{0};
  std::atomic<int> resumes{0};
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override {
    ++applies;
    return true;
  }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override { ++resumes; }
};

TEST(ThreadedRuntimeSmoke, PaperMapRunsEndToEndOnRealThreads) {
  ThreadedRuntime rt({.workers = 4, .seed = 42});
  core::SafeAdaptationSystem system(rt);
  core::configure_paper_system(system);
  StubProcess server, handheld, laptop;
  system.attach_process(core::kServerProcess, server, /*stage=*/0);
  system.attach_process(core::kHandheldProcess, handheld, /*stage=*/1);
  system.attach_process(core::kLaptopProcess, laptop, /*stage=*/1);
  system.finalize();
  system.set_current_configuration(core::paper_source(system.registry()));
  rt.transport().set_tracing(true);

  const auto result = system.adapt_and_wait(core::paper_target(system.registry()));

  EXPECT_EQ(result.outcome, proto::AdaptationOutcome::Success);
  EXPECT_EQ(result.final_config, core::paper_target(system.registry()));
  EXPECT_EQ(result.steps_committed, 5U);
  EXPECT_EQ(result.step_failures, 0U);

  // Same MAP the simulator produces: planning is deterministic and
  // backend-independent.
  std::vector<std::string> actions;
  for (const proto::StepRecord& record : system.manager().step_log()) {
    EXPECT_TRUE(record.committed);
    actions.push_back(record.action_name);
  }
  EXPECT_EQ(actions, (std::vector<std::string>{"A2", "A17", "A1", "A16", "A4"}));
  EXPECT_EQ(server.applies.load(), 1);
  EXPECT_EQ(handheld.applies.load(), 2);
  EXPECT_EQ(laptop.applies.load(), 2);

  // Quiesce, then conformance-check the real-thread trace against the
  // Figure 1 / Figure 2 automata — the same checker the simulator runs.
  rt.shutdown();
  const auto violations =
      proto::check_trace(rt.transport().trace(), {system.manager_node()});
  for (const auto& violation : violations) {
    ADD_FAILURE() << "conformance violation at t=" << violation.time << ": "
                  << violation.description;
  }
  EXPECT_FALSE(rt.transport().trace().empty());
}

}  // namespace
}  // namespace sa::runtime
