// Tier-1 promotion of bench_failure_recovery's PASS/FAIL scenarios: the §4.4
// strategy chain (retransmit -> rollback -> retry -> alternate path -> return
// to source -> user intervention) must resolve each failure shape the same
// way every run, so the properties the bench prints are asserted here.
#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "inject/faulty_runtime.hpp"
#include "runtime/sim_runtime.hpp"

namespace sa::core {
namespace {

struct NullProcess : proto::AdaptableProcess {
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override { return true; }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override {}
};

/// The paper system on the simulator behind the fault decorators.
struct Harness {
  runtime::SimRuntime sim;
  inject::FaultyRuntime faulty;
  SafeAdaptationSystem system;
  NullProcess server, handheld, laptop;

  explicit Harness(SystemConfig config = {})
      : sim(config.seed), faulty(sim, config.seed), system(faulty, config) {
    configure_paper_system(system);
    system.attach_process(kServerProcess, server, 0);
    system.attach_process(kHandheldProcess, handheld, 1);
    system.attach_process(kLaptopProcess, laptop, 1);
    system.finalize();
    system.set_current_configuration(paper_source(system.registry()));
  }

  config::Configuration source() { return paper_source(system.registry()); }
  config::Configuration target() { return paper_target(system.registry()); }
};

TEST(FailureRecovery, RetransmissionsAbsorbModerateControlLoss) {
  // Bench loss sweep: with 5 retransmission rounds, every run through 20%
  // control-channel loss must still reach the target.
  for (const int loss_percent : {5, 10, 20}) {
    for (int run = 0; run < 10; ++run) {
      SystemConfig config;
      config.seed = 7000 + static_cast<std::uint64_t>(loss_percent) * 100 +
                    static_cast<std::uint64_t>(run);
      config.control_channel.loss_probability = loss_percent / 100.0;
      config.manager.message_retries = 5;
      Harness harness(config);
      const auto result = harness.system.adapt_and_wait(harness.target());
      EXPECT_EQ(result.outcome, proto::AdaptationOutcome::Success)
          << "loss " << loss_percent << "%, run " << run;
      EXPECT_EQ(result.final_config, harness.target());
    }
  }
}

TEST(FailureRecovery, LossCostsRetransmissionsNotCorrectness) {
  // At 20% loss some run in the seed range must actually have retransmitted —
  // otherwise the sweep above proved nothing about loss handling.
  std::uint64_t total_retries = 0;
  for (int run = 0; run < 10; ++run) {
    SystemConfig config;
    config.seed = 9000 + static_cast<std::uint64_t>(run);
    config.control_channel.loss_probability = 0.20;
    config.manager.message_retries = 5;
    Harness harness(config);
    total_retries += harness.system.adapt_and_wait(harness.target()).message_retries;
  }
  EXPECT_GT(total_retries, 0u);
}

TEST(FailureRecovery, TransientFailToResetCostsOneRollbackThenSucceeds) {
  // Bench "transient stuck process": the hand-held agent cannot reach its
  // safe state until the first rollback lands, then heals. The manager must
  // absorb this as step failures and still reach the target.
  Harness harness;
  harness.system.agent(kHandheldProcess).set_fail_to_reset(true);
  std::optional<proto::AdaptationResult> result;
  harness.system.request_adaptation(
      harness.target(), [&result](const proto::AdaptationResult& r) { result = r; });
  std::size_t events = 0;
  while (!result && events < 1'000'000 && harness.sim.simulator().step()) {
    ++events;
    if (!harness.system.manager().step_log().empty() &&
        harness.system.manager().step_log().front().rolled_back) {
      harness.system.agent(kHandheldProcess).set_fail_to_reset(false);
    }
  }
  ASSERT_TRUE(result.has_value()) << "adaptation did not terminate";
  EXPECT_EQ(result->outcome, proto::AdaptationOutcome::Success);
  EXPECT_EQ(result->final_config, harness.target());
  EXPECT_GE(result->step_failures, 1u);
}

TEST(FailureRecovery, PermanentFailToResetParksAtSafeConfiguration) {
  // Bench "permanent stuck process": every path to the target needs the
  // hand-held agent, so the strategy chain must exhaust itself and park the
  // system at a safe configuration with a non-success outcome.
  Harness harness;
  harness.system.agent(kHandheldProcess).set_fail_to_reset(true);
  const auto result = harness.system.adapt_and_wait(harness.target(), 5'000'000);
  EXPECT_NE(result.outcome, proto::AdaptationOutcome::Success);
  EXPECT_TRUE(harness.system.invariants().satisfied(result.final_config))
      << "parked at unsafe configuration "
      << result.final_config.describe(harness.system.registry());
  EXPECT_EQ(harness.system.current_configuration(), result.final_config);
  EXPECT_GE(result.plans_tried, 1u);
}

TEST(FailureRecovery, PartitionedAgentTerminatesWithoutReachingTarget) {
  // Bench "unreachable agent": the manager <-> hand-held pair is cut before
  // the request. The protocol must terminate (bounded retries), not succeed,
  // and leave the system resting in a safe configuration.
  Harness harness;
  harness.faulty.faulty_transport().partition_pair(
      harness.system.manager_node(), harness.system.agent_node(kHandheldProcess), true);
  const auto result = harness.system.adapt_and_wait(harness.target(), 5'000'000);
  EXPECT_NE(result.outcome, proto::AdaptationOutcome::Success);
  EXPECT_TRUE(harness.system.invariants().satisfied(result.final_config));
  EXPECT_EQ(harness.system.current_configuration(), result.final_config);
}

}  // namespace
}  // namespace sa::core
