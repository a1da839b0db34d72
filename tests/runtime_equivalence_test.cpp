#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "proto/manager.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/threaded_runtime.hpp"

namespace sa::core {
namespace {

struct StubProcess : proto::AdaptableProcess {
  std::atomic<int> applies{0};
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override {
    ++applies;
    return true;
  }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override { return; }
};

/// What both backends must agree on for the paper's 64->128-bit request.
struct BackendRun {
  proto::AdaptationOutcome outcome;
  std::string final_config;
  std::size_t steps_committed = 0;
  std::size_t step_failures = 0;
  std::vector<std::string> actions;
  double wall_ms = 0.0;
};

BackendRun run_paper_request(SafeAdaptationSystem& system) {
  configure_paper_system(system);
  StubProcess server, handheld, laptop;
  system.attach_process(kServerProcess, server, /*stage=*/0);
  system.attach_process(kHandheldProcess, handheld, /*stage=*/1);
  system.attach_process(kLaptopProcess, laptop, /*stage=*/1);
  system.finalize();
  system.set_current_configuration(paper_source(system.registry()));

  const auto start = std::chrono::steady_clock::now();
  const auto result = system.adapt_and_wait(paper_target(system.registry()));
  const auto elapsed = std::chrono::steady_clock::now() - start;

  BackendRun run;
  run.outcome = result.outcome;
  run.final_config = result.final_config.describe(system.registry());
  run.steps_committed = result.steps_committed;
  run.step_failures = result.step_failures;
  for (const proto::StepRecord& record : system.manager().step_log()) {
    run.actions.push_back(record.action_name);
  }
  run.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(elapsed).count();
  return run;
}

TEST(RuntimeEquivalence, PaperScenarioAgreesAcrossBackends) {
  // Deterministic simulator backend (owned by the facade).
  SafeAdaptationSystem sim_system;
  const BackendRun sim_run = run_paper_request(sim_system);

  // Real-thread backend.
  runtime::ThreadedRuntime rt({.workers = 4, .seed = 42});
  SafeAdaptationSystem threaded_system(rt);
  const BackendRun threaded_run = run_paper_request(threaded_system);
  rt.shutdown();

  EXPECT_EQ(sim_run.outcome, proto::AdaptationOutcome::Success);
  EXPECT_EQ(threaded_run.outcome, sim_run.outcome);
  EXPECT_EQ(threaded_run.final_config, sim_run.final_config);
  EXPECT_EQ(threaded_run.steps_committed, sim_run.steps_committed);
  EXPECT_EQ(threaded_run.step_failures, sim_run.step_failures);
  EXPECT_EQ(threaded_run.actions, sim_run.actions);
  EXPECT_EQ(sim_run.actions, (std::vector<std::string>{"A2", "A17", "A1", "A16", "A4"}));

  // Recorded in EXPERIMENTS.md ("Runtime backends"); the threaded number is
  // real wall-clock spent inside latency-bearing timers and is expected to
  // dwarf the simulator's.
  std::printf("[equivalence] sim backend: %.1f ms wall, threaded backend: %.1f ms wall\n",
              sim_run.wall_ms, threaded_run.wall_ms);
}

TEST(RuntimeEquivalence, ThreadedBackendRejectsSimulatorEscapeHatches) {
  runtime::ThreadedRuntime rt;
  SafeAdaptationSystem system(rt);
  EXPECT_THROW(system.simulator(), std::logic_error);
  EXPECT_THROW(system.network(), std::logic_error);
  EXPECT_EQ(system.runtime().backend_name(), "threaded");
  rt.shutdown();
}

struct SizedMsg final : runtime::Message {
  std::size_t bytes;
  explicit SizedMsg(std::size_t b) : bytes(b) {}
  std::string type_name() const override { return "sized"; }
  std::size_t size_bytes() const override { return bytes; }
};

/// Sends `count` messages alternating over a -> b and b -> a, whose configs
/// differ, and returns both channels' stats plus the accept pattern.
std::pair<std::vector<runtime::ChannelStats>, std::string> drive_channels(
    runtime::Transport& transport, int count) {
  const runtime::NodeId a = transport.add_node("a");
  const runtime::NodeId b = transport.add_node("b");
  runtime::ChannelConfig forward{runtime::us(50), runtime::us(200), 0.3, /*fifo=*/true};
  forward.duplicate_probability = 0.4;
  forward.bytes_per_second = 10'000'000;
  runtime::ChannelConfig backward{runtime::us(20), 0, 0.15, /*fifo=*/false};
  backward.duplicate_probability = 0.35;
  transport.connect(a, b, forward);
  transport.connect(b, a, backward);
  std::string accepted;
  for (int i = 0; i < count; ++i) {
    const bool there = i % 3 != 2;
    const bool ok = there ? transport.send(a, b, std::make_shared<SizedMsg>(100 + i))
                          : transport.send(b, a, std::make_shared<SizedMsg>(100 + i));
    accepted += ok ? '1' : '0';
  }
  return {{transport.channel_stats(a, b), transport.channel_stats(b, a)}, accepted};
}

// The simulated network and the threaded transport share one link model, so
// the same seed and configs must give the same loss, jitter and duplication
// draws: identical per-channel counters and the same accepted sends.
TEST(RuntimeEquivalence, ChannelDrawsMatchAcrossBackends) {
  constexpr int kSends = 600;
  runtime::SimRuntime sim_rt(7);
  const auto sim_result = drive_channels(sim_rt.transport(), kSends);

  runtime::ThreadedRuntime threaded_rt({.workers = 2, .seed = 7});
  const auto threaded_result = drive_channels(threaded_rt.transport(), kSends);
  threaded_rt.shutdown();

  ASSERT_EQ(sim_result.first.size(), threaded_result.first.size());
  for (std::size_t i = 0; i < sim_result.first.size(); ++i) {
    const runtime::ChannelStats& s = sim_result.first[i];
    const runtime::ChannelStats& t = threaded_result.first[i];
    EXPECT_EQ(s.sent, t.sent) << "channel " << i;
    EXPECT_EQ(s.delivered, t.delivered) << "channel " << i;
    EXPECT_EQ(s.duplicated, t.duplicated) << "channel " << i;
    EXPECT_EQ(s.dropped_loss, t.dropped_loss) << "channel " << i;
    EXPECT_GT(s.dropped_loss, 0U) << "channel " << i;
    EXPECT_GT(s.duplicated, 0U) << "channel " << i;
  }
  EXPECT_EQ(sim_result.second, threaded_result.second);
}

}  // namespace
}  // namespace sa::core
