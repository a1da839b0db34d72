// Bounded interleaving explorer (src/check): clean scenarios stay clean under
// exhaustive / bounded / randomized search, deliberately broken cores are
// caught, and every counterexample replays deterministically.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "check/model.hpp"
#include "check/scenario.hpp"

namespace sa::check {
namespace {

void expect_clean(const ExploreResult& result) {
  if (result.counterexample) {
    for (const std::string& v : result.counterexample->violations) {
      ADD_FAILURE() << "unexpected violation: " << v;
    }
  }
}

TEST(Explorer, TinyScenarioExhaustiveDfsIsClean) {
  const Scenario scenario = make_tiny_scenario();
  ExploreOptions options;
  options.max_depth = 300;
  options.max_states = 2'000'000;
  const ExploreResult result = explore_dfs(scenario, options);
  expect_clean(result);
  // Every schedule fits the budgets, so this is a proof over the whole
  // space: delivery orders and timer races, including the full §4.4 chain.
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.stats.runs_completed, 0U);
  EXPECT_EQ(result.stats.depth_capped, 0U);
  EXPECT_TRUE(result.stats.outcomes.count("success"));
  EXPECT_TRUE(result.stats.outcomes.count("rolled-back-to-source"));
  EXPECT_TRUE(result.stats.outcomes.count("user-intervention-required"));
}

TEST(Explorer, StateBudgetThatStopsTheSearchIsReported) {
  const Scenario scenario = make_tiny_scenario();
  ExploreOptions options;
  options.max_depth = 300;
  options.max_states = 50;
  const ExploreResult result = explore_dfs(scenario, options);
  expect_clean(result);
  EXPECT_TRUE(result.state_budget_reached);
  EXPECT_EQ(result.stats.depth_capped, 0U);
  EXPECT_FALSE(result.complete);
}

TEST(Explorer, DepthBoundThatCutsRunsIsNotAStateBudget) {
  const Scenario scenario = make_tiny_scenario();
  ExploreOptions options;
  options.max_depth = 6;
  options.max_states = 2'000'000;
  const ExploreResult result = explore_dfs(scenario, options);
  expect_clean(result);
  EXPECT_FALSE(result.state_budget_reached);
  EXPECT_GT(result.stats.depth_capped, 0U);
  EXPECT_FALSE(result.complete);
}

// A scenario file converts to the same checker scenario as the C++ builder:
// pair, written in the .scenario format, searches identically.
TEST(Explorer, ScenarioFileChecksLikeItsBuilder) {
  const Scenario from_file = scenario_from("pair-file", core::parse_scenario_text(R"(
component A process=0
component B process=0
component C process=1
component D process=1
process 0 stage=0
process 1 stage=1
invariant "upstream exclusive" one(A, B)
invariant "downstream exclusive" one(C, D)
invariant "A needs C" A -> C
invariant "C needs A" C -> A
action swap remove=A,C add=B,D cost=1
action unswap remove=B,D add=A,C cost=1
source A,C
target B,D
)"));
  const Scenario builder = make_pair_scenario();
  EXPECT_EQ(from_file.stages, builder.stages);
  ExploreOptions options;
  options.max_depth = 18;
  options.dpor = true;
  const ExploreResult a = explore_dfs(from_file, options);
  const ExploreResult b = explore_dfs(builder, options);
  expect_clean(a);
  EXPECT_GT(a.stats.runs_completed, 0U);
  EXPECT_EQ(a.stats.states_explored, b.stats.states_explored);
  EXPECT_EQ(a.stats.states_deduped, b.stats.states_deduped);
  EXPECT_EQ(a.stats.runs_completed, b.stats.runs_completed);
  EXPECT_EQ(a.stats.outcomes, b.stats.outcomes);
  EXPECT_THROW(scenario_from("no-target", core::parse_scenario_text("component A process=0\n"
                                                                     "source A\n")),
               std::bad_optional_access);
}

TEST(Explorer, TinyScenarioWithMessageDropIsClean) {
  const Scenario scenario = make_tiny_scenario();
  ExploreOptions options;
  options.max_depth = 300;
  options.max_states = 150'000;
  options.drop_budget = 1;
  expect_clean(explore_dfs(scenario, options));
}

TEST(Explorer, PairScenarioBoundedDfsIsClean) {
  const Scenario scenario = make_pair_scenario();
  ExploreOptions options;
  options.max_depth = 24;
  options.max_states = 300'000;
  const ExploreResult result = explore_dfs(scenario, options);
  expect_clean(result);
  EXPECT_GT(result.stats.states_explored, 0U);
}

TEST(Explorer, PairScenarioWithReorderingIsClean) {
  const Scenario scenario = make_pair_scenario();
  ExploreOptions options;
  options.max_depth = 20;
  options.max_states = 200'000;
  options.reorder = true;
  options.dup_budget = 1;
  expect_clean(explore_dfs(scenario, options));
}

TEST(Explorer, RandomWalksOnAllScenariosAreClean) {
  ExploreOptions options;
  options.drop_budget = 2;
  options.dup_budget = 2;
  for (const char* name : {"tiny", "pair", "paper"}) {
    const Scenario scenario = make_scenario(name);
    const ExploreResult result = explore_random(scenario, options, /*seed=*/17, /*runs=*/300);
    expect_clean(result);
    EXPECT_EQ(result.stats.runs_completed, 300U) << name;
  }
}

TEST(Explorer, FailingAgentDrivesFailureChainCleanly) {
  const Scenario scenario = make_tiny_scenario();
  ExploreOptions options;
  options.max_depth = 300;
  options.max_states = 500'000;
  options.fail_to_reset = {0};
  const ExploreResult result = explore_dfs(scenario, options);
  expect_clean(result);
  // The agent never quiesces, so no run can succeed — every leaf must still
  // end in a legal failure outcome.
  EXPECT_GT(result.stats.runs_completed, 0U);
  EXPECT_EQ(result.stats.outcomes.count("success"), 0U);
}

TEST(Explorer, SimPolicyDrainsToSuccess) {
  const Scenario scenario = make_tiny_scenario();
  Model model = make_model(scenario, ExploreOptions{});
  int guard = 0;
  while (const auto choice = model.sim_choice()) {
    ASSERT_TRUE(model.apply(*choice));
    ASSERT_LT(++guard, 10'000);
  }
  model.finalize();
  EXPECT_TRUE(model.violations().empty());
  ASSERT_NE(model.outcome(), nullptr);
  EXPECT_EQ(model.outcome()->outcome, proto::AdaptationOutcome::Success);
}

// A planner over every configuration, safe or not, takes tiny through {A, B}:
// growing B and then dropping A is cheaper than the swap. The manager commits
// that unsafe step, and the model must name the invariant it breaks.
TEST(Explorer, PlanThroughAnUnsafeConfigurationIsCaught) {
  Scenario scenario = make_tiny_scenario();
  scenario.actions->add("grow", {}, {"B"}, 0.25, "add B beside A");
  scenario.actions->add("shrink", {"A"}, {}, 0.25, "remove A");
  const std::vector<config::Configuration> every{
      config::Configuration(0), config::Configuration(1), config::Configuration(2),
      config::Configuration(3)};
  scenario.sag = std::make_unique<actions::SafeAdaptationGraph>(*scenario.actions, every);
  scenario.planner = std::make_unique<actions::PathPlanner>(*scenario.sag);
  ExploreOptions options;
  options.max_depth = 40;
  const ExploreResult result = explore_dfs(scenario, options);
  ASSERT_TRUE(result.counterexample.has_value());
  ASSERT_FALSE(result.counterexample->violations.empty());
  EXPECT_NE(result.counterexample->violations.front().find(
                "committed unsafe configuration B,A (violates: exclusive)"),
            std::string::npos)
      << result.counterexample->violations.front();
}

// --- mutation checks: a broken manager core must be caught -------------------

TEST(Explorer, ResumeBeforeLastAdaptDoneIsCaughtAndReplays) {
  const Scenario scenario = make_pair_scenario();
  ExploreOptions options;
  options.max_depth = 40;
  options.fault = proto::ManagerFault::ResumeBeforeLastAdaptDone;
  const ExploreResult result = explore_dfs(scenario, options);
  ASSERT_TRUE(result.counterexample.has_value());
  ASSERT_FALSE(result.counterexample->violations.empty());
  EXPECT_NE(result.counterexample->violations.front().find("§4.3"), std::string::npos);

  const ReplayResult replayed = replay(scenario, options, result.counterexample->schedule);
  EXPECT_TRUE(replayed.schedule_valid);
  ASSERT_EQ(replayed.violations.size(), result.counterexample->violations.size());
  for (std::size_t i = 0; i < replayed.violations.size(); ++i) {
    EXPECT_EQ(replayed.violations[i].description, result.counterexample->violations[i]);
  }
}

TEST(Explorer, RollbackAfterResumeIsCaughtAndReplays) {
  Scenario scenario = make_tiny_scenario();
  // One retransmission round per phase: a single dropped resume done already
  // exhausts the resume phase, which is where the mutated core misbehaves.
  scenario.manager_config.message_retries = 0;
  scenario.manager_config.run_to_completion_retries = 0;
  ExploreOptions options;
  options.max_depth = 60;
  options.max_states = 500'000;
  options.drop_budget = 1;
  options.fault = proto::ManagerFault::RollbackAfterResume;
  const ExploreResult result = explore_dfs(scenario, options);
  ASSERT_TRUE(result.counterexample.has_value());
  ASSERT_FALSE(result.counterexample->violations.empty());
  EXPECT_NE(result.counterexample->violations.front().find("§4.4"), std::string::npos);

  const ReplayResult replayed = replay(scenario, options, result.counterexample->schedule);
  EXPECT_TRUE(replayed.schedule_valid);
  ASSERT_FALSE(replayed.violations.empty());
  EXPECT_EQ(replayed.violations.front().description, result.counterexample->violations.front());
}

// A search's models record no transitions, so its forks copy none: turning
// recording off drops the events start() already recorded. Replay keeps
// recording on and still returns the whole Fig. 1/2 log from the start.
TEST(Explorer, RecordingOffDropsRecordedTransitionsAndForksCopyNone) {
  const Scenario scenario = make_pair_scenario();
  const ExploreOptions options;
  Model recycled = make_model(scenario, options);
  ASSERT_FALSE(recycled.transitions().empty()) << "start() records the manager's first phases";

  Model model = make_model(scenario, options);
  model.set_record_transitions(false);
  EXPECT_TRUE(model.transitions().empty());
  EXPECT_EQ(model.transitions().capacity(), 0U);
  const Model copy = model;
  EXPECT_TRUE(copy.transitions().empty());
  recycled = model;  // a fork target that held recorded events
  EXPECT_TRUE(recycled.transitions().empty());

  // Walk the simulator's schedule to quiescence with recording off: no fork
  // along it gains an event.
  std::vector<Choice> schedule;
  Model recording = make_model(scenario, options);
  const std::size_t start_events = recording.transitions().size();
  while (const std::optional<Choice> choice = model.sim_choice()) {
    Model fork = model;
    ASSERT_TRUE(fork.apply(*choice));
    EXPECT_TRUE(fork.transitions().empty());
    model = fork;
    ASSERT_TRUE(recording.apply(*choice));
    schedule.push_back(*choice);
  }
  ASSERT_NE(model.outcome(), nullptr);
  EXPECT_EQ(model.outcome()->outcome, proto::AdaptationOutcome::Success);

  const ReplayResult replayed = replay(scenario, options, schedule);
  ASSERT_TRUE(replayed.schedule_valid);
  ASSERT_EQ(replayed.transitions.size(), recording.transitions().size());
  EXPECT_GT(replayed.transitions.size(), start_events);
  for (std::size_t i = 0; i < replayed.transitions.size(); ++i) {
    EXPECT_EQ(replayed.transitions[i].seq, i);
    EXPECT_EQ(replayed.transitions[i].kind, recording.transitions()[i].kind) << "event " << i;
    EXPECT_EQ(replayed.transitions[i].name, recording.transitions()[i].name) << "event " << i;
  }
}

TEST(Explorer, CounterexampleJsonRoundTrips) {
  const Scenario scenario = make_pair_scenario();
  ExploreOptions options;
  options.max_depth = 40;
  options.fault = proto::ManagerFault::ResumeBeforeLastAdaptDone;
  const ExploreResult result = explore_dfs(scenario, options);
  ASSERT_TRUE(result.counterexample.has_value());

  ScheduleFile file;
  file.scenario = scenario.name;
  file.options = options;
  file.schedule = result.counterexample->schedule;
  file.violations = result.counterexample->violations;

  const ScheduleFile parsed = schedule_from_json(to_json(file));
  EXPECT_EQ(parsed.scenario, file.scenario);
  EXPECT_EQ(parsed.options.max_depth, options.max_depth);
  EXPECT_EQ(parsed.options.drop_budget, options.drop_budget);
  EXPECT_EQ(parsed.options.fault, options.fault);
  ASSERT_EQ(parsed.schedule.size(), file.schedule.size());
  EXPECT_EQ(parsed.schedule, file.schedule);
  EXPECT_EQ(parsed.violations, file.violations);

  // The parsed file is self-contained: replaying it reproduces the violation.
  const Scenario fresh = make_scenario(parsed.scenario);
  const ReplayResult replayed = replay(fresh, parsed.options, parsed.schedule);
  EXPECT_TRUE(replayed.schedule_valid);
  ASSERT_FALSE(replayed.violations.empty());
  EXPECT_EQ(replayed.violations.front().description, file.violations.front());
}

}  // namespace
}  // namespace sa::check
