#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <tuple>

#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "inject/faulty_runtime.hpp"
#include "proto/conformance.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace sa::proto {
namespace {

struct NullProcess : AdaptableProcess {
  bool prepare(const LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const LocalCommand&) override { return true; }
  bool undo(const LocalCommand&) override { return true; }
  void resume() override {}
};

/// The paper system on the simulator behind the fault decorators: `faults`
/// partitions links and records the delivered trace the checker reads.
struct Harness {
  runtime::SimRuntime sim;
  inject::FaultyRuntime faulty;
  inject::FaultyTransport& faults = faulty.faulty_transport();
  core::SafeAdaptationSystem system;
  NullProcess server, handheld, laptop;

  explicit Harness(core::SystemConfig config = {})
      : sim(config.seed), faulty(sim, config.seed), system(faulty, config) {
    core::configure_paper_system(system);
    system.attach_process(core::kServerProcess, server, 0);
    system.attach_process(core::kHandheldProcess, handheld, 1);
    system.attach_process(core::kLaptopProcess, laptop, 1);
    system.finalize();
    system.set_current_configuration(core::paper_source(system.registry()));
    faults.set_tracing(true);
  }

  std::vector<ConformanceViolation> run_and_check(std::size_t max_events = 2'000'000) {
    std::optional<AdaptationResult> result;
    system.request_adaptation(core::paper_target(system.registry()),
                              [&result](const AdaptationResult& r) { result = r; });
    std::size_t events = 0;
    while (!result && events < max_events && sim.simulator().step()) ++events;
    const ConformanceChecker checker(system.manager_node());
    return checker.check(faults.trace());
  }
};

// --- positive checks over real executions ----------------------------------------

TEST(Conformance, HappyPathTraceIsClean) {
  Harness harness;
  const auto violations = harness.run_and_check();
  for (const auto& v : violations) ADD_FAILURE() << v.time << ": " << v.description;
  EXPECT_TRUE(violations.empty());
}

TEST(Conformance, FailToResetWithRollbacksIsClean) {
  Harness harness;
  harness.system.agent(core::kHandheldProcess).set_fail_to_reset(true);
  const auto violations = harness.run_and_check();
  for (const auto& v : violations) ADD_FAILURE() << v.time << ": " << v.description;
}

TEST(Conformance, PartitionedAgentTraceIsClean) {
  Harness harness;
  harness.faults.partition_pair(harness.system.manager_node(),
                                harness.system.agent_node(core::kHandheldProcess), true);
  const auto violations = harness.run_and_check();
  for (const auto& v : violations) ADD_FAILURE() << v.time << ": " << v.description;
}

// --- negative checks: the checker actually detects bad traces ---------------------

sim::TraceEntry entry(sim::Time time, sim::NodeId from, sim::NodeId to, sim::MessagePtr msg) {
  return sim::TraceEntry{time, from, to, msg->type_name(), true, std::move(msg)};
}

template <typename Msg>
sim::MessagePtr make_msg(std::uint32_t step_index = 0) {
  auto msg = std::make_shared<Msg>();
  msg->step = StepRef{1, 0, step_index, 0};
  return msg;
}

TEST(Conformance, DetectsResumeBeforeAdaptDone) {
  const sim::NodeId manager = 0, agent = 1;
  std::vector<sim::TraceEntry> trace{
      entry(1, manager, agent, make_msg<ResetMsg>()),
      entry(2, agent, manager, make_msg<ResetDoneMsg>()),
      entry(3, manager, agent, make_msg<ResumeMsg>()),  // too early!
  };
  const ConformanceChecker checker(manager);
  const auto violations = checker.check(trace);
  ASSERT_EQ(violations.size(), 1U);
  EXPECT_NE(violations[0].description.find("before its adapt done"), std::string::npos);
}

TEST(Conformance, DetectsRollbackAfterResume) {
  const sim::NodeId manager = 0, agent = 1;
  std::vector<sim::TraceEntry> trace{
      entry(1, manager, agent, make_msg<ResetMsg>()),
      entry(2, agent, manager, make_msg<AdaptDoneMsg>()),
      entry(3, manager, agent, make_msg<ResumeMsg>()),
      entry(4, manager, agent, make_msg<RollbackMsg>()),  // forbidden by §4.4
  };
  const auto violations = ConformanceChecker(manager).check(trace);
  ASSERT_GE(violations.size(), 1U);
  EXPECT_NE(violations.back().description.find("§4.4"), std::string::npos);
}

TEST(Conformance, DetectsProgressWithoutReset) {
  const sim::NodeId manager = 0, agent = 1;
  std::vector<sim::TraceEntry> trace{
      entry(1, agent, manager, make_msg<AdaptDoneMsg>()),  // never got a reset
  };
  const auto violations = ConformanceChecker(manager).check(trace);
  ASSERT_EQ(violations.size(), 1U);
  EXPECT_NE(violations[0].description.find("without having received a reset"),
            std::string::npos);
}

TEST(Conformance, DetectsSpontaneousRollbackDone) {
  const sim::NodeId manager = 0, agent = 1;
  std::vector<sim::TraceEntry> trace{
      entry(1, manager, agent, make_msg<ResetMsg>()),
      entry(2, agent, manager, make_msg<RollbackDoneMsg>()),  // no rollback sent
  };
  const auto violations = ConformanceChecker(manager).check(trace);
  ASSERT_EQ(violations.size(), 1U);
  EXPECT_NE(violations[0].description.find("without a rollback command"), std::string::npos);
}

TEST(Conformance, NoOpRollbackDoneForUnknownStepIsLegitimate) {
  const sim::NodeId manager = 0, agent = 1;
  std::vector<sim::TraceEntry> trace{
      entry(1, agent, manager, make_msg<RollbackDoneMsg>()),
  };
  EXPECT_TRUE(ConformanceChecker(manager).check(trace).empty());
}

TEST(Conformance, IgnoresApplicationTrafficAndDrops) {
  struct AppMsg final : sim::Message {
    std::string type_name() const override { return "app"; }
  };
  const sim::NodeId manager = 0, agent = 1;
  std::vector<sim::TraceEntry> trace{
      sim::TraceEntry{1, agent, manager, "app", true, std::make_shared<AppMsg>()},
      sim::TraceEntry{2, manager, agent, "reset", false, nullptr},  // dropped
  };
  EXPECT_TRUE(ConformanceChecker(manager).check(trace).empty());
}

// --- property sweep: conformance + termination under randomized failure -----------

using SweepParam = std::tuple<std::uint64_t /*seed*/, int /*loss %*/, int /*dup %*/>;

class ProtocolSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ProtocolSweep, EveryExecutionConformsAndTerminatesConsistently) {
  const auto [seed, loss_percent, dup_percent] = GetParam();
  core::SystemConfig config;
  config.seed = seed;
  config.control_channel.loss_probability = loss_percent / 100.0;
  config.control_channel.duplicate_probability = dup_percent / 100.0;
  config.manager.message_retries = 6;
  Harness harness(config);

  std::optional<AdaptationResult> result;
  harness.system.request_adaptation(core::paper_target(harness.system.registry()),
                                    [&result](const AdaptationResult& r) { result = r; });
  std::size_t events = 0;
  while (!result && events < 2'000'000 && harness.sim.simulator().step()) ++events;

  // Termination: the request always resolves.
  ASSERT_TRUE(result.has_value()) << "seed " << seed;
  // Conformance: no execution, however lossy, bends the protocol rules.
  const auto violations =
      ConformanceChecker(harness.system.manager_node()).check(harness.faults.trace());
  for (const auto& v : violations) {
    ADD_FAILURE() << "seed " << seed << " loss " << loss_percent << "%: " << v.time << ": "
                  << v.description;
  }
  // Consistency: the final configuration is safe, and on success it is the
  // target with every step committed.
  EXPECT_TRUE(harness.system.invariants().satisfied(result->final_config));
  if (result->outcome == AdaptationOutcome::Success) {
    EXPECT_EQ(result->final_config, core::paper_target(harness.system.registry()));
    EXPECT_EQ(result->steps_committed, 5U);
  }
  EXPECT_FALSE(harness.system.manager().busy());
}

// Partition-flapping fuzz: links to random agents go down and come back at
// random moments throughout the adaptation. Whatever happens, the protocol
// must terminate, conform to the automata, and leave a safe configuration.
class PartitionFlapSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionFlapSweep, TerminatesConformsAndStaysSafe) {
  const std::uint64_t seed = GetParam();
  core::SystemConfig config;
  config.seed = seed;
  Harness harness(config);
  sa::util::Rng rng(seed * 7919 + 13);

  const sim::NodeId manager_node = harness.system.manager_node();
  const std::array<config::ProcessId, 3> processes{core::kServerProcess, core::kHandheldProcess,
                                                   core::kLaptopProcess};
  bool flapping = true;
  std::function<void()> flap = [&] {
    if (!flapping) return;
    const config::ProcessId victim = processes[rng.next_below(processes.size())];
    const bool down = rng.next_bool(0.5);
    harness.faults.partition_pair(manager_node, harness.system.agent_node(victim), down);
    harness.sim.simulator().schedule_after(
        sim::ms(static_cast<std::int64_t>(20 + rng.next_below(180))), flap);
  };
  harness.sim.simulator().schedule_after(sim::ms(10), flap);

  std::optional<AdaptationResult> result;
  harness.system.request_adaptation(core::paper_target(harness.system.registry()),
                                    [&result](const AdaptationResult& r) { result = r; });
  std::size_t events = 0;
  while (!result && events < 5'000'000 && harness.sim.simulator().step()) ++events;
  flapping = false;

  ASSERT_TRUE(result.has_value()) << "seed " << seed << " did not terminate";
  EXPECT_FALSE(harness.system.manager().busy());
  EXPECT_TRUE(harness.system.invariants().satisfied(result->final_config)) << "seed " << seed;
  const auto violations =
      ConformanceChecker(manager_node).check(harness.faults.trace());
  for (const auto& v : violations) {
    ADD_FAILURE() << "seed " << seed << ": " << v.time << ": " << v.description;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionFlapSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

INSTANTIATE_TEST_SUITE_P(
    SeedsAndFaults, ProtocolSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(0, 10, 25),
                       ::testing::Values(0, 20)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_loss" +
             std::to_string(std::get<1>(info.param)) + "_dup" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace sa::proto
