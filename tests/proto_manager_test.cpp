#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "inject/faulty_runtime.hpp"
#include "proto/manager.hpp"
#include "runtime/sim_runtime.hpp"

namespace sa::proto {
namespace {

using core::kHandheldProcess;
using core::kLaptopProcess;
using core::kServerProcess;

/// Scripted process with counters (same shape as in proto_agent_test).
struct ScriptedProcess : AdaptableProcess {
  int prepares = 0, applies = 0, undos = 0, resumes = 0, aborts = 0;
  int fail_next_applies = 0;  ///< injection: next N apply() calls report failure
  std::vector<std::string> applied_commands;

  bool prepare(const LocalCommand&) override {
    ++prepares;
    return true;
  }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override { ++aborts; }
  bool apply(const LocalCommand& command) override {
    if (fail_next_applies > 0) {
      --fail_next_applies;
      return false;
    }
    ++applies;
    applied_commands.push_back(command.describe());
    return true;
  }
  bool undo(const LocalCommand&) override {
    ++undos;
    return true;
  }
  void resume() override { ++resumes; }
};

/// The paper system on the simulator behind the fault decorators.
struct ManagerFixture : ::testing::Test {
  core::SystemConfig sys_config;
  std::unique_ptr<runtime::SimRuntime> sim;
  std::unique_ptr<inject::FaultyRuntime> faulty;
  std::unique_ptr<core::SafeAdaptationSystem> system;
  ScriptedProcess server, handheld, laptop;

  void build(std::function<void(core::SystemConfig&)> tweak = nullptr) {
    if (tweak) tweak(sys_config);
    sim = std::make_unique<runtime::SimRuntime>(sys_config.seed);
    faulty = std::make_unique<inject::FaultyRuntime>(*sim, sys_config.seed);
    system = std::make_unique<core::SafeAdaptationSystem>(*faulty, sys_config);
    core::configure_paper_system(*system);
    system->attach_process(kServerProcess, server, /*stage=*/0);
    system->attach_process(kHandheldProcess, handheld, /*stage=*/1);
    system->attach_process(kLaptopProcess, laptop, /*stage=*/1);
    system->finalize();
    system->set_current_configuration(core::paper_source(system->registry()));
  }

  config::Configuration target() const { return core::paper_target(system->registry()); }
  config::Configuration source() const { return core::paper_source(system->registry()); }

  /// Runs the simulator until `predicate` holds or the event budget drains.
  template <typename Predicate>
  bool run_until(Predicate predicate, std::size_t max_events = 500'000) {
    std::size_t events = 0;
    while (!predicate() && events < max_events && sim->simulator().step()) ++events;
    return predicate();
  }
};

TEST_F(ManagerFixture, HappyPathExecutesMapAndCommits) {
  build();
  const auto result = system->adapt_and_wait(target());

  EXPECT_EQ(result.outcome, AdaptationOutcome::Success);
  EXPECT_EQ(result.final_config, target());
  EXPECT_EQ(result.steps_committed, 5U);
  EXPECT_EQ(result.step_failures, 0U);
  EXPECT_EQ(result.plans_tried, 1U);
  EXPECT_EQ(system->current_configuration(), target());

  // Step log records the paper's MAP in order, all committed.
  std::vector<std::string> actions;
  for (const StepRecord& record : system->manager().step_log()) {
    EXPECT_TRUE(record.committed);
    EXPECT_FALSE(record.rolled_back);
    actions.push_back(record.action_name);
  }
  EXPECT_EQ(actions, (std::vector<std::string>{"A2", "A17", "A1", "A16", "A4"}));

  // Per-process involvement matches the MAP: handheld does A2 and A4, laptop
  // A17 and A16, the server A1.
  EXPECT_EQ(handheld.applies, 2);
  EXPECT_EQ(laptop.applies, 2);
  EXPECT_EQ(server.applies, 1);
  EXPECT_EQ(server.applied_commands, (std::vector<std::string>{"-E1 +E2"}));
  EXPECT_EQ(handheld.applied_commands, (std::vector<std::string>{"-D1 +D2", "-D2 +D3"}));
  EXPECT_EQ(laptop.applied_commands, (std::vector<std::string>{"+D5", "-D4"}));

  // Every process resumed as many times as it adapted; nothing undone.
  EXPECT_EQ(handheld.resumes, 2);
  EXPECT_EQ(server.undos + handheld.undos + laptop.undos, 0);
}

TEST_F(ManagerFixture, AlreadyAtTargetSucceedsWithoutSteps) {
  build();
  const auto result = system->adapt_and_wait(source());
  EXPECT_EQ(result.outcome, AdaptationOutcome::Success);
  EXPECT_EQ(result.steps_committed, 0U);
  EXPECT_EQ(server.applies + handheld.applies + laptop.applies, 0);
}

TEST_F(ManagerFixture, UnsafeTargetYieldsNoPath) {
  build();
  const auto unsafe = config::Configuration::of(system->registry(), {"D1", "D2"});
  const auto result = system->adapt_and_wait(unsafe);
  EXPECT_EQ(result.outcome, AdaptationOutcome::NoPathFound);
  EXPECT_EQ(system->current_configuration(), source());
}

TEST_F(ManagerFixture, SafeConfigurationsAndSagExposed) {
  build();
  EXPECT_EQ(system->manager().safe_configurations().size(), 8U);
  EXPECT_EQ(system->manager().sag().node_count(), 8U);
}

TEST_F(ManagerFixture, RequestWhileBusyRejected) {
  build();
  system->request_adaptation(target(), [](const AdaptationResult&) {});
  EXPECT_TRUE(system->manager().busy());
  EXPECT_THROW(system->request_adaptation(target(), nullptr), std::logic_error);
}

TEST_F(ManagerFixture, LossyControlChannelsRecoveredByRetransmission) {
  build([](core::SystemConfig& cfg) {
    cfg.seed = 11;
    cfg.control_channel.loss_probability = 0.15;
    cfg.manager.message_retries = 6;
  });
  const auto result = system->adapt_and_wait(target());
  EXPECT_EQ(result.outcome, AdaptationOutcome::Success);
  EXPECT_EQ(result.final_config, target());
  // With 15% loss across 5 steps x 3 rounds, some retransmission happened.
  EXPECT_GT(result.message_retries, 0U);
}

TEST_F(ManagerFixture, DuplicatedControlMessagesAreHarmless) {
  build([](core::SystemConfig& cfg) {
    cfg.seed = 5;
    cfg.control_channel.duplicate_probability = 0.5;
  });
  const auto result = system->adapt_and_wait(target());
  EXPECT_EQ(result.outcome, AdaptationOutcome::Success);
  EXPECT_EQ(result.final_config, target());
  EXPECT_EQ(result.steps_committed, 5U);
  // Each in-action executed exactly once despite duplicate resets.
  EXPECT_EQ(handheld.applies, 2);
  EXPECT_EQ(laptop.applies, 2);
  EXPECT_EQ(server.applies, 1);
  // Agents observed and absorbed duplicates.
  const auto duplicates = system->agent(kHandheldProcess).stats().duplicate_messages +
                          system->agent(kLaptopProcess).stats().duplicate_messages +
                          system->agent(kServerProcess).stats().duplicate_messages;
  EXPECT_GT(duplicates, 0U);
}

TEST_F(ManagerFixture, LossAndDuplicationTogether) {
  build([](core::SystemConfig& cfg) {
    cfg.seed = 21;
    cfg.control_channel.loss_probability = 0.1;
    cfg.control_channel.duplicate_probability = 0.3;
    cfg.manager.message_retries = 6;
  });
  const auto result = system->adapt_and_wait(target());
  EXPECT_EQ(result.outcome, AdaptationOutcome::Success);
  EXPECT_EQ(handheld.applies, 2);
  EXPECT_EQ(handheld.undos, 0);
}

TEST_F(ManagerFixture, FailToResetParksSystemAtSafeConfiguration) {
  build();
  system->agent(kHandheldProcess).set_fail_to_reset(true);
  const auto result = system->adapt_and_wait(target());
  // Every path from source to target eventually swaps the hand-held decoder,
  // so the strategy chain is exhausted. Depending on which tied-cost
  // alternative committed intermediate steps, the manager either returns to
  // the source or parks at a safe intermediate awaiting user intervention —
  // never at the target, and never in an unsafe configuration.
  EXPECT_TRUE(result.outcome == AdaptationOutcome::RolledBackToSource ||
              result.outcome == AdaptationOutcome::UserInterventionRequired)
      << to_string(result.outcome);
  EXPECT_NE(result.final_config, target());
  EXPECT_TRUE(system->invariants().satisfied(result.final_config));
  EXPECT_GT(result.step_failures, 0U);
  EXPECT_EQ(handheld.applies, 0);  // the failing process never adapted
  // Every logged step has a definite fate: committed or rolled back.
  for (const StepRecord& record : system->manager().step_log()) {
    EXPECT_TRUE(record.committed || record.rolled_back);
  }
}

TEST_F(ManagerFixture, FailToResetOnUninvolvedProcessIsHarmless) {
  build();
  system->agent(kHandheldProcess).set_fail_to_reset(true);
  // Target {D5,D4,D1,E1}: only A17 (+D5 on the laptop) is needed.
  const auto insert_only =
      config::Configuration::from_bit_string("1100101", system->registry().size());
  const auto result = system->adapt_and_wait(insert_only);
  EXPECT_EQ(result.outcome, AdaptationOutcome::Success);
  EXPECT_EQ(result.steps_committed, 1U);
  EXPECT_EQ(laptop.applies, 1);
  EXPECT_EQ(handheld.applies, 0);
}

TEST_F(ManagerFixture, RetryAfterTransientFailToResetSucceeds) {
  build();
  system->agent(kHandheldProcess).set_fail_to_reset(true);

  std::optional<AdaptationResult> result;
  system->request_adaptation(target(),
                             [&result](const AdaptationResult& r) { result = r; });
  // Heal the agent as soon as the first step has been rolled back; the
  // manager's strategy (1) — retry the same step once — then succeeds.
  ASSERT_TRUE(run_until([&] {
    return !system->manager().step_log().empty() &&
           system->manager().step_log().front().rolled_back;
  }));
  system->agent(kHandheldProcess).set_fail_to_reset(false);
  ASSERT_TRUE(run_until([&] { return result.has_value(); }));

  EXPECT_EQ(result->outcome, AdaptationOutcome::Success);
  EXPECT_EQ(result->final_config, target());
  EXPECT_EQ(result->step_failures, 1U);
  EXPECT_EQ(result->plans_tried, 1U);
  EXPECT_EQ(handheld.aborts, 1);  // one aborted reset
}

TEST_F(ManagerFixture, AlternativePathAfterRepeatedStepFailure) {
  build();
  system->agent(kHandheldProcess).set_fail_to_reset(true);

  std::optional<AdaptationResult> result;
  system->request_adaptation(target(),
                             [&result](const AdaptationResult& r) { result = r; });
  // Let the step fail twice (original + retry); heal before the alternative
  // path is attempted. The alternative (e.g. A17 first) also goes through the
  // hand-held later, which now works.
  ASSERT_TRUE(run_until([&] {
    std::size_t rolled_back = 0;
    for (const StepRecord& record : system->manager().step_log()) {
      rolled_back += record.rolled_back;
    }
    return rolled_back >= 2;
  }));
  system->agent(kHandheldProcess).set_fail_to_reset(false);
  ASSERT_TRUE(run_until([&] { return result.has_value(); }));

  EXPECT_EQ(result->outcome, AdaptationOutcome::Success);
  EXPECT_EQ(result->final_config, target());
  EXPECT_GE(result->step_failures, 2U);
  EXPECT_GE(result->plans_tried, 2U);
}

TEST(ManagerDrainFlags, CombinedActionDrainsDownstreamOnly) {
  // A pair action spanning the sender (stage 0) and a receiver (stage 1)
  // must ask only the receiver to drain (the global safe condition); the
  // sender quiesces in packet mode. Sole-stage actions never drain.
  struct DrainRecorder : AdaptableProcess {
    std::optional<bool> drain;
    bool prepare(const LocalCommand&) override { return true; }
    void reach_safe_state(bool drain_requested, std::function<void()> reached) override {
      drain = drain_requested;
      reached();
    }
    void abort_safe_state() override {}
    bool apply(const LocalCommand&) override { return true; }
    bool undo(const LocalCommand&) override { return true; }
    void resume() override {}
  };

  core::SystemConfig config;
  core::SafeAdaptationSystem system(config);
  core::configure_paper_system(system, core::PaperActionSet::CombinedOnly);
  DrainRecorder server, handheld, laptop;
  system.attach_process(core::kServerProcess, server, 0);
  system.attach_process(core::kHandheldProcess, handheld, 1);
  system.attach_process(core::kLaptopProcess, laptop, 1);
  system.finalize();
  system.set_current_configuration(core::paper_source(system.registry()));

  // Target {D5,D2,E2}: with combined actions only the MAP includes a
  // sender+receiver pair action (A6 tier).
  const auto target = config::Configuration::of(system.registry(), {"D5", "D2", "E2"});
  const auto result = system.adapt_and_wait(target);
  ASSERT_EQ(result.outcome, AdaptationOutcome::Success);
  ASSERT_TRUE(server.drain.has_value());
  ASSERT_TRUE(handheld.drain.has_value());
  EXPECT_FALSE(*server.drain);   // upstream: packet-mode quiescence
  EXPECT_TRUE(*handheld.drain);  // downstream of a multi-stage action: drain
}

// After the manager decides to resume, the adaptation must run to completion
// (§4.4) — use a dedicated two-process pair action so the resume message
// itself can be lost (sole-participant steps resume proactively and cannot
// stall this way).
TEST(ManagerRunToCompletion, PartitionBeforeResumeDeliveryStallsButCommits) {
  core::SystemConfig cfg;
  cfg.manager.resume_timeout = sim::ms(20);
  cfg.manager.run_to_completion_retries = 3;
  runtime::SimRuntime sim(cfg.seed);
  inject::FaultyRuntime faulty(sim, cfg.seed);
  core::SafeAdaptationSystem system(faulty, cfg);
  system.registry().add("X0", 0);
  system.registry().add("X1", 1);
  system.registry().add("Y0", 0);
  system.registry().add("Y1", 1);
  system.add_invariant("pairing", "one(X0, Y0) & one(X1, Y1) & (X0 -> X1) & (Y0 -> Y1)");
  system.add_action("SWAP", {"X0", "X1"}, {"Y0", "Y1"}, 10, "swap both halves");

  ScriptedProcess a, b;
  system.attach_process(0, a, /*stage=*/0);
  system.attach_process(1, b, /*stage=*/1);
  system.finalize();

  const auto source = config::Configuration::of(system.registry(), {"X0", "X1"});
  const auto target = config::Configuration::of(system.registry(), {"Y0", "Y1"});
  system.set_current_configuration(source);

  std::optional<AdaptationResult> result;
  system.request_adaptation(target, [&result](const AdaptationResult& r) { result = r; });

  // Partition process 1 the moment its agent reaches the adapted state: its
  // adapt done is already in flight (partitions only affect future sends), so
  // the manager will enter resuming — but the resume message is lost forever.
  std::size_t events = 0;
  while (system.agent(1).state() != AgentState::Adapted && events < 100000 &&
         sim.simulator().step()) {
    ++events;
  }
  ASSERT_EQ(system.agent(1).state(), AgentState::Adapted);
  faulty.faulty_transport().partition_pair(system.manager_node(), system.agent_node(1), true);

  while (!result && events < 200000 && sim.simulator().step()) ++events;
  ASSERT_TRUE(result.has_value());

  EXPECT_EQ(result->outcome, AdaptationOutcome::StalledAfterResume);
  EXPECT_EQ(result->steps_committed, 1U);
  EXPECT_EQ(result->final_config, target);
  // Both in-actions committed; nothing was undone (no rollback after resume).
  EXPECT_EQ(a.applies, 1);
  EXPECT_EQ(b.applies, 1);
  EXPECT_EQ(a.undos + b.undos, 0);
  // Process 0 resumed; process 1 is still blocked awaiting the operator.
  EXPECT_EQ(a.resumes, 1);
  EXPECT_EQ(b.resumes, 0);
}

TEST_F(ManagerFixture, TotalPartitionRequiresUserIntervention) {
  build();
  // The hand-held is unreachable from the very start: resets are lost, the
  // reset timeout fires, rollback messages are lost too -> user intervention.
  faulty->faulty_transport().partition_pair(system->manager_node(),
                                            system->agent_node(kHandheldProcess), true);
  const auto result = system->adapt_and_wait(target());
  EXPECT_EQ(result.outcome, AdaptationOutcome::UserInterventionRequired);
  // No structural change was ever applied anywhere.
  EXPECT_EQ(server.applies + handheld.applies + laptop.applies, 0);
  EXPECT_EQ(system->current_configuration(), source());
}

TEST_F(ManagerFixture, BlockedTimeAccumulatesAcrossSteps) {
  build();
  const auto result = system->adapt_and_wait(target());
  ASSERT_EQ(result.outcome, AdaptationOutcome::Success);
  EXPECT_GT(system->manager().total_blocked_reported(), 0);
}

TEST_F(ManagerFixture, TransientInActionFailureRecoveredByStepRetry) {
  // An in-action that fails leaves the agent parked in its safe state; the
  // manager's adapt timeout aborts the step, and the §4.4 retry succeeds.
  build();
  handheld.fail_next_applies = 1;
  const auto result = system->adapt_and_wait(target());
  EXPECT_EQ(result.outcome, AdaptationOutcome::Success);
  EXPECT_EQ(result.final_config, target());
  EXPECT_EQ(result.step_failures, 1U);
  EXPECT_EQ(handheld.applies, 2);  // A2 (after one failed try) and A4
  EXPECT_EQ(handheld.undos, 0);    // nothing to undo: the apply never mutated
  EXPECT_GE(handheld.aborts, 1);   // the failed attempt was aborted
}

TEST_F(ManagerFixture, EnqueuedRequestsRunInOrder) {
  build();
  std::vector<std::string> completions;
  // First hop: source -> {D4,D2,E1} (A2); second continues to the target.
  const auto midpoint = config::Configuration::of(system->registry(), {"D4", "D2", "E1"});
  system->manager().enqueue_adaptation(midpoint, [&](const AdaptationResult& r) {
    completions.push_back("first:" + std::string(to_string(r.outcome)));
  });
  system->manager().enqueue_adaptation(target(), [&](const AdaptationResult& r) {
    completions.push_back("second:" + std::string(to_string(r.outcome)));
  });
  EXPECT_EQ(system->manager().queued_requests(), 1U);
  sim->simulator().run(500'000);
  EXPECT_EQ(completions,
            (std::vector<std::string>{"first:success", "second:success"}));
  EXPECT_EQ(system->current_configuration(), target());
  EXPECT_EQ(system->manager().queued_requests(), 0U);
}

TEST_F(ManagerFixture, EnqueueWhileIdleStartsImmediately) {
  build();
  bool done = false;
  system->manager().enqueue_adaptation(target(), [&](const AdaptationResult&) { done = true; });
  EXPECT_TRUE(system->manager().busy());
  EXPECT_EQ(system->manager().queued_requests(), 0U);
  sim->simulator().run(500'000);
  EXPECT_TRUE(done);
}

TEST_F(ManagerFixture, SequentialRequestsReuseManager) {
  build();
  auto first = system->adapt_and_wait(target());
  ASSERT_EQ(first.outcome, AdaptationOutcome::Success);
  // And back: target -> source is reachable? The action table is asymmetric
  // (no D3 -> D1 action), so expect an honest NoPathFound.
  const auto back = system->adapt_and_wait(source());
  EXPECT_EQ(back.outcome, AdaptationOutcome::NoPathFound);
  // A further reachable request still works.
  const auto to_d2 = config::Configuration::of(system->registry(), {"D5", "D2", "E2"});
  // From {D5,D3,E2} no action leads back to D2 either; verify honesty again.
  const auto result = system->adapt_and_wait(to_d2);
  EXPECT_EQ(result.outcome, AdaptationOutcome::NoPathFound);
}

}  // namespace
}  // namespace sa::proto
