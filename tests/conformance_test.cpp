#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
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

  std::vector<SafetyViolation> run_and_check(std::size_t max_events = 2'000'000) {
    std::optional<AdaptationResult> result;
    system.request_adaptation(core::paper_target(system.registry()),
                              [&result](const AdaptationResult& r) { result = r; });
    std::size_t events = 0;
    while (!result && events < max_events && sim.simulator().step()) ++events;
    return check_trace(faults.trace(), {system.manager_node()});
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

// --- negative checks: both feeds detect hand-built bad sequences ------------------

sim::TraceEntry entry(sim::Time time, sim::NodeId from, sim::NodeId to, sim::MessagePtr msg) {
  return sim::TraceEntry{time, from, to, msg->type_name(), true, std::move(msg)};
}

template <typename Msg>
sim::MessagePtr make_msg(std::uint32_t step_index = 0) {
  auto msg = std::make_shared<Msg>();
  msg->step = StepRef{1, 0, step_index, 0};
  return msg;
}

sim::MessagePtr make_commit(std::uint64_t epoch, std::uint32_t shard) {
  auto msg = std::make_shared<EpochCommitMsg>();
  msg->epoch = epoch;
  msg->targets.push_back(ShardTarget{shard, config::Configuration{}});
  return msg;
}

/// One hand-built sequence of delivered messages and the violations the
/// monitor must report for it: one expected substring per violation, in
/// order. Endpoints in `managers` are managers; every other one is an agent
/// (or, for coordinator messages, a coordinator).
struct FeedCase {
  const char* name;
  std::vector<sim::NodeId> managers;
  std::vector<sim::TraceEntry> trace;
  std::vector<std::string> expected;
};

void PrintTo(const FeedCase& c, std::ostream* os) { *os << c.name; }

std::vector<FeedCase> feed_cases() {
  const sim::NodeId manager = 0, agent = 1, second_agent = 2, other_manager = 10,
                    other_agent = 11;
  return {
      {"ResumeBeforeAdaptDone",
       {manager},
       {entry(1, manager, agent, make_msg<ResetMsg>()),
        entry(2, agent, manager, make_msg<ResetDoneMsg>()),
        entry(3, manager, agent, make_msg<ResumeMsg>())},  // too early!
       {"resume before the adapt done of agent 1"}},
      {"EarlyResumeRetransmittedIsReportedOnce",
       {manager},
       {entry(1, manager, agent, make_msg<ResetMsg>()),
        entry(2, agent, manager, make_msg<ResetDoneMsg>()),
        entry(3, manager, agent, make_msg<ResumeMsg>()),
        entry(4, manager, agent, make_msg<ResumeMsg>()),
        entry(5, manager, agent, make_msg<ResumeMsg>())},
       {"resume before the adapt done of agent 1"}},
      // §4.3 is global: resuming the agent that finished while another is
      // still adapting is as unsafe as resuming the one still adapting.
      {"ResumeToTheAckedAgentWhileAnotherAdapts",
       {manager},
       {entry(1, manager, agent, make_msg<ResetMsg>()),
        entry(2, manager, second_agent, make_msg<ResetMsg>()),
        entry(3, agent, manager, make_msg<AdaptDoneMsg>()),
        entry(4, manager, agent, make_msg<ResumeMsg>())},
       {"resume before the adapt done of agent 2"}},
      {"EarlyResumeToEveryAgentReportsEachOnce",
       {manager},
       {entry(1, manager, agent, make_msg<ResetMsg>()),
        entry(2, manager, second_agent, make_msg<ResetMsg>()),
        entry(3, manager, agent, make_msg<ResumeMsg>()),
        entry(4, manager, second_agent, make_msg<ResumeMsg>()),
        entry(5, manager, agent, make_msg<ResumeMsg>())},
       {"resume before the adapt done of agent 1", "resume before the adapt done of agent 2"}},
      {"RollbackAfterResume",
       {manager},
       {entry(1, manager, agent, make_msg<ResetMsg>()),
        entry(2, agent, manager, make_msg<AdaptDoneMsg>()),
        entry(3, manager, agent, make_msg<ResumeMsg>()),
        entry(4, manager, agent, make_msg<RollbackMsg>())},  // forbidden by §4.4
       {"§4.4 run-to-completion"}},
      {"ResumeAfterRollback",
       {manager},
       {entry(1, manager, agent, make_msg<ResetMsg>()),
        entry(2, agent, manager, make_msg<AdaptDoneMsg>()),
        entry(3, manager, agent, make_msg<RollbackMsg>()),
        entry(4, manager, agent, make_msg<ResumeMsg>())},
       {"rollback and resume are exclusive"}},
      {"ProgressWithoutReset",
       {manager},
       {entry(1, agent, manager, make_msg<AdaptDoneMsg>())},  // never got a reset
       {"without having received a reset"}},
      {"SpontaneousRollbackDone",
       {manager},
       {entry(1, manager, agent, make_msg<ResetMsg>()),
        entry(2, agent, manager, make_msg<RollbackDoneMsg>())},  // no rollback sent
       {"without a rollback command"}},
      // Every manager numbers its requests from 1, so two shard managers'
      // first steps share (request, plan, step, attempt): one shard resuming
      // while the other rolls back is legal.
      {"TwoManagersWithTheSameStepCoordinates",
       {manager, other_manager},
       {entry(1, manager, agent, make_msg<ResetMsg>()),
        entry(2, other_manager, other_agent, make_msg<ResetMsg>()),
        entry(3, agent, manager, make_msg<AdaptDoneMsg>()),
        entry(4, other_agent, other_manager, make_msg<ResetDoneMsg>()),
        entry(5, manager, agent, make_msg<ResumeMsg>()),
        entry(6, other_manager, other_agent, make_msg<RollbackMsg>()),
        entry(7, other_agent, other_manager, make_msg<RollbackDoneMsg>())},
       {}},
      {"EpochRecommittedWithOtherTargets",
       {},
       {entry(1, 20, 21, make_commit(1, 0)), entry(2, 20, 21, make_commit(1, 1)),
        entry(3, 20, 21, make_commit(1, 1))},
       {"out-of-epoch commit"}},
      {"EpochDoneNeverCommitted",
       {},
       {entry(1, 21, 20, std::make_shared<EpochDoneMsg>())},
       {"never committed"}},
  };
}

class MonitorFeeds : public ::testing::TestWithParam<FeedCase> {};

/// The model checker's feed: each manager send and receive goes straight
/// into the monitor's incremental interface, as check::Model calls it.
std::vector<SafetyViolation> feed_incrementally(const FeedCase& c) {
  const auto is_manager = [&c](sim::NodeId node) {
    return std::find(c.managers.begin(), c.managers.end(), node) != c.managers.end();
  };
  SafetyMonitor monitor;
  std::vector<SafetyViolation> out;
  for (const sim::TraceEntry& e : c.trace) {
    if (const auto* coord = dynamic_cast<const CoordMessage*>(e.message.get())) {
      monitor.on_link(e.time, e.from, e.to, *coord, out);
    } else if (is_manager(e.from)) {
      monitor.on_send(e.time, e.from, e.to, *e.message, out);
    } else {
      monitor.on_receive(e.time, e.to, e.from, *e.message, out);
    }
  }
  return out;
}

TEST_P(MonitorFeeds, ReportIdenticalViolations) {
  const FeedCase& c = GetParam();
  const std::vector<SafetyViolation> incremental = feed_incrementally(c);
  const std::vector<SafetyViolation> replayed = check_trace(c.trace, c.managers);
  ASSERT_EQ(incremental.size(), c.expected.size());
  ASSERT_EQ(replayed.size(), c.expected.size());
  for (std::size_t i = 0; i < c.expected.size(); ++i) {
    EXPECT_NE(incremental[i].description.find(c.expected[i]), std::string::npos)
        << incremental[i].description;
    EXPECT_EQ(replayed[i].description, incremental[i].description);
    EXPECT_EQ(replayed[i].time, incremental[i].time);
  }
}

INSTANTIATE_TEST_SUITE_P(HandBuilt, MonitorFeeds, ::testing::ValuesIn(feed_cases()),
                         [](const ::testing::TestParamInfo<FeedCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(Conformance, NoOpRollbackDoneForUnknownStepIsLegitimate) {
  const sim::NodeId manager = 0, agent = 1;
  std::vector<sim::TraceEntry> trace{
      entry(1, agent, manager, make_msg<RollbackDoneMsg>()),
  };
  EXPECT_TRUE(check_trace(trace, {manager}).empty());
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
  EXPECT_TRUE(check_trace(trace, {manager}).empty());
}

// --- the §4.4 terminal-outcome rule -----------------------------------------------

TEST(Conformance, OutcomeRuleRestsSuccessAtTargetAndRollbackAtSource) {
  config::ComponentRegistry registry;
  const config::Configuration source = config::Configuration{}.with(registry.add("X", 0));
  const config::Configuration target = config::Configuration{}.with(registry.add("Y", 0));
  const auto breaches = [&](AdaptationOutcome outcome, const config::Configuration& rest,
                            const std::vector<std::string>& not_running = {}) {
    return outcome_violations(to_string(outcome), rest, source, target, registry).size() +
           outcome_agent_violations(to_string(outcome), not_running).size();
  };
  EXPECT_EQ(breaches(AdaptationOutcome::Success, target), 0U);
  EXPECT_EQ(breaches(AdaptationOutcome::Success, source), 1U);
  EXPECT_EQ(breaches(AdaptationOutcome::Success, target, {"1", "2"}), 2U);
  EXPECT_EQ(breaches(AdaptationOutcome::RolledBackToSource, source), 0U);
  EXPECT_EQ(breaches(AdaptationOutcome::RolledBackToSource, target), 1U);
  EXPECT_EQ(breaches(AdaptationOutcome::NoPathFound, target), 1U);
  // The parking outcomes may rest anywhere safe, agents included.
  EXPECT_EQ(breaches(AdaptationOutcome::UserInterventionRequired, target, {"1"}), 0U);
  EXPECT_EQ(breaches(AdaptationOutcome::StalledAfterResume, source, {"1"}), 0U);
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
      check_trace(harness.faults.trace(), {harness.system.manager_node()});
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
      check_trace(harness.faults.trace(), {manager_node});
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
