#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "proto/agent.hpp"
#include "proto/messages.hpp"
#include "sim/network.hpp"

namespace sa::proto {
namespace {

/// Scripted process with full observability and failure injection.
struct ScriptedProcess : AdaptableProcess {
  bool prepare_ok = true;
  bool apply_ok = true;
  bool hold_safe_state = false;  ///< never invoke the reached callback

  int prepares = 0, applies = 0, undos = 0, resumes = 0, aborts = 0, cleanups = 0;
  bool last_drain = false;
  LocalCommand last_command;

  bool prepare(const LocalCommand& command) override {
    ++prepares;
    last_command = command;
    return prepare_ok;
  }
  void reach_safe_state(bool drain, std::function<void()> reached) override {
    last_drain = drain;
    if (!hold_safe_state) reached();
  }
  void abort_safe_state() override { ++aborts; }
  bool apply(const LocalCommand& command) override {
    ++applies;
    last_command = command;
    return apply_ok;
  }
  bool undo(const LocalCommand&) override {
    ++undos;
    return true;
  }
  void resume() override { ++resumes; }
  void cleanup(const LocalCommand&) override { ++cleanups; }
};

struct AgentFixture : ::testing::Test {
  sim::Simulator sim;
  sim::Network net{sim, 3};
  sim::NodeId manager = net.add_node("manager");
  sim::NodeId agent_node = net.add_node("agent");
  ScriptedProcess process;
  AgentConfig config;
  std::unique_ptr<AdaptationAgent> agent;

  std::vector<std::pair<std::string, StepRef>> inbox;  // messages at the manager

  void SetUp() override {
    net.connect_bidirectional(manager, agent_node, sim::ChannelConfig{sim::ms(1), 0, 0.0, true});
    net.set_handler(manager, [this](sim::NodeId, sim::MessagePtr msg) {
      const auto& proto = dynamic_cast<const ProtoMessage&>(*msg);
      inbox.emplace_back(msg->type_name(), proto.step);
    });
    config.pre_action_duration = sim::ms(1);
    config.in_action_duration = sim::ms(2);
    config.resume_duration = sim::us(200);
  }

  void start_agent() {
    agent = std::make_unique<AdaptationAgent>(sim, net, agent_node, manager, process, config);
  }

  StepRef step(std::uint32_t attempt = 0) { return StepRef{1, 0, 0, attempt}; }

  void send_reset(bool sole = false, bool drain = false, std::uint32_t attempt = 0) {
    auto msg = std::make_shared<ResetMsg>();
    msg->step = step(attempt);
    msg->command.remove = {"D1"};
    msg->command.add = {"D2"};
    msg->drain = drain;
    msg->sole_participant = sole;
    net.send(manager, agent_node, std::move(msg));
  }

  template <typename Msg>
  void send(std::uint32_t attempt = 0) {
    auto msg = std::make_shared<Msg>();
    msg->step = step(attempt);
    net.send(manager, agent_node, std::move(msg));
  }

  std::vector<std::string> message_types() const {
    std::vector<std::string> out;
    for (const auto& [type, ref] : inbox) out.push_back(type);
    return out;
  }
};

TEST_F(AgentFixture, NormalAdaptationSequence) {
  start_agent();
  send_reset();
  sim.run();
  // reset done when safe, adapt done when the in-action completes.
  EXPECT_EQ(message_types(), (std::vector<std::string>{"reset done", "adapt done"}));
  EXPECT_EQ(agent->state(), AgentState::Adapted);
  EXPECT_EQ(process.prepares, 1);
  EXPECT_EQ(process.applies, 1);
  EXPECT_EQ(process.last_command.describe(), "-D1 +D2");

  send<ResumeMsg>();
  sim.run();
  EXPECT_EQ(message_types().back(), "resume done");
  EXPECT_EQ(agent->state(), AgentState::Running);
  EXPECT_EQ(process.resumes, 1);
  EXPECT_EQ(process.cleanups, 1);
  EXPECT_EQ(agent->stats().adapts_performed, 1U);
}

TEST_F(AgentFixture, DrainFlagForwardedToProcess) {
  start_agent();
  send_reset(/*sole=*/false, /*drain=*/true);
  sim.run();
  EXPECT_TRUE(process.last_drain);
}

TEST_F(AgentFixture, SoleParticipantResumesWithoutResumeMessage) {
  start_agent();
  send_reset(/*sole=*/true);
  sim.run();
  EXPECT_EQ(message_types(),
            (std::vector<std::string>{"reset done", "adapt done", "resume done"}));
  EXPECT_EQ(agent->state(), AgentState::Running);
  EXPECT_EQ(process.resumes, 1);
  // A late resume from the manager is re-acknowledged, not re-executed.
  send<ResumeMsg>();
  sim.run();
  EXPECT_EQ(message_types().back(), "resume done");
  EXPECT_EQ(process.resumes, 1);
  EXPECT_EQ(agent->stats().duplicate_messages, 1U);
}

TEST_F(AgentFixture, DuplicateResetWhileSafeReacknowledges) {
  config.in_action_duration = sim::ms(50);  // long in-action window
  start_agent();
  send_reset();
  sim.run_until(sim::ms(10));  // agent: safe, in-action pending
  EXPECT_EQ(agent->state(), AgentState::Safe);
  send_reset();
  sim.run_until(sim::ms(20));
  EXPECT_EQ(message_types(), (std::vector<std::string>{"reset done", "reset done"}));
  EXPECT_EQ(process.prepares, 1);  // not re-executed
}

TEST_F(AgentFixture, DuplicateResetAfterAdaptedResendsBothAcks) {
  start_agent();
  send_reset();
  sim.run();
  inbox.clear();
  send_reset();
  sim.run();
  EXPECT_EQ(message_types(), (std::vector<std::string>{"reset done", "adapt done"}));
  EXPECT_EQ(process.applies, 1);
}

TEST_F(AgentFixture, DuplicateResumeAfterCompletionReacknowledges) {
  start_agent();
  send_reset();
  sim.run();
  send<ResumeMsg>();
  sim.run();
  inbox.clear();
  send<ResumeMsg>();
  sim.run();
  EXPECT_EQ(message_types(), (std::vector<std::string>{"resume done"}));
  EXPECT_EQ(process.resumes, 1);
}

TEST_F(AgentFixture, FailToResetNeverAcknowledges) {
  config.fail_to_reset = true;
  start_agent();
  send_reset();
  sim.run();
  EXPECT_TRUE(inbox.empty());
  EXPECT_EQ(agent->state(), AgentState::Resetting);
}

TEST_F(AgentFixture, PrepareFailureHoldsInResetting) {
  process.prepare_ok = false;
  start_agent();
  send_reset();
  sim.run();
  EXPECT_TRUE(inbox.empty());
  EXPECT_EQ(agent->state(), AgentState::Resetting);
  EXPECT_EQ(process.applies, 0);
}

TEST_F(AgentFixture, ApplyFailureHoldsInSafe) {
  process.apply_ok = false;
  start_agent();
  send_reset();
  sim.run();
  EXPECT_EQ(message_types(), (std::vector<std::string>{"reset done"}));
  EXPECT_EQ(agent->state(), AgentState::Safe);
}

TEST_F(AgentFixture, RollbackWhileResettingAborts) {
  config.fail_to_reset = true;
  start_agent();
  send_reset();
  sim.run_until(sim::ms(10));
  send<RollbackMsg>();
  sim.run();
  EXPECT_EQ(message_types(), (std::vector<std::string>{"rollback done"}));
  EXPECT_EQ(agent->state(), AgentState::Running);
  EXPECT_EQ(process.aborts, 1);
  EXPECT_EQ(process.applies, 0);
  EXPECT_EQ(process.undos, 0);
}

TEST_F(AgentFixture, RollbackWhileSafeCancelsInAction) {
  config.in_action_duration = sim::ms(50);
  start_agent();
  send_reset();
  sim.run_until(sim::ms(10));  // safe, in-action still pending
  send<RollbackMsg>();
  sim.run();
  EXPECT_EQ(agent->state(), AgentState::Running);
  EXPECT_EQ(process.applies, 0);  // cancelled before it mutated anything
  EXPECT_EQ(process.aborts, 1);
  EXPECT_EQ(message_types().back(), "rollback done");
}

TEST_F(AgentFixture, RollbackAfterAdaptedUndoes) {
  start_agent();
  send_reset();
  sim.run();
  ASSERT_EQ(agent->state(), AgentState::Adapted);
  send<RollbackMsg>();
  sim.run();
  EXPECT_EQ(agent->state(), AgentState::Running);
  EXPECT_EQ(process.undos, 1);
  EXPECT_EQ(process.resumes, 1);
  EXPECT_EQ(message_types().back(), "rollback done");
  EXPECT_EQ(agent->stats().rollbacks_performed, 1U);
}

TEST_F(AgentFixture, RollbackForUnknownStepAcknowledgedAsNoop) {
  start_agent();
  send<RollbackMsg>();
  sim.run();
  EXPECT_EQ(message_types(), (std::vector<std::string>{"rollback done"}));
  EXPECT_EQ(process.undos, 0);
  EXPECT_EQ(agent->state(), AgentState::Running);
}

TEST_F(AgentFixture, DuplicateRollbackReacknowledged) {
  start_agent();
  send_reset();
  sim.run();
  send<RollbackMsg>();
  sim.run();
  inbox.clear();
  send<RollbackMsg>();
  sim.run();
  EXPECT_EQ(message_types(), (std::vector<std::string>{"rollback done"}));
  EXPECT_EQ(process.undos, 1);  // not undone twice
}

TEST_F(AgentFixture, CompensatingRollbackAfterProactiveResume) {
  // Sole participant adapted and resumed; the manager (having lost the adapt
  // done) aborts the step. The agent must re-quiesce, undo, and resume.
  start_agent();
  send_reset(/*sole=*/true);
  sim.run();
  ASSERT_EQ(agent->state(), AgentState::Running);
  EXPECT_EQ(process.resumes, 1);
  send<RollbackMsg>();
  sim.run();
  EXPECT_EQ(process.undos, 1);
  EXPECT_EQ(process.resumes, 2);
  EXPECT_EQ(message_types().back(), "rollback done");
}

TEST_F(AgentFixture, BlockedTimeReportedInResumeDone) {
  start_agent();
  send_reset();
  sim.run();
  send<ResumeMsg>();

  sim::Time reported = -1;
  net.set_handler(manager, [&](sim::NodeId, sim::MessagePtr msg) {
    if (const auto* done = dynamic_cast<const ResumeDoneMsg*>(msg.get())) {
      reported = done->blocked_for;
    }
  });
  sim.run();
  // Blocked from entering safe (t=2ms) through in-action (2ms), the resume
  // round trip, and the resume duration.
  EXPECT_GE(reported, config.in_action_duration + config.resume_duration);
  EXPECT_EQ(agent->stats().total_blocked, reported);
}

TEST_F(AgentFixture, StaleStepResetIgnoredWhileBusy) {
  config.in_action_duration = sim::ms(50);
  start_agent();
  send_reset();
  sim.run_until(sim::ms(10));
  // A reset for a *different* step while mid-adaptation is a protocol
  // anomaly: ignored entirely.
  auto msg = std::make_shared<ResetMsg>();
  msg->step = StepRef{9, 0, 9, 0};
  net.send(manager, agent_node, std::move(msg));
  sim.run_until(sim::ms(20));
  EXPECT_EQ(message_types(), (std::vector<std::string>{"reset done"}));
  EXPECT_EQ(process.prepares, 1);
}

TEST_F(AgentFixture, RetriedStepAfterRollbackRunsFresh) {
  start_agent();
  send_reset();
  sim.run();
  send<RollbackMsg>();
  sim.run();
  inbox.clear();
  send_reset(false, false, /*attempt=*/1);
  sim.run();
  EXPECT_EQ(message_types(), (std::vector<std::string>{"reset done", "adapt done"}));
  EXPECT_EQ(process.applies, 2);
  EXPECT_EQ(agent->state(), AgentState::Adapted);
}

}  // namespace
}  // namespace sa::proto
