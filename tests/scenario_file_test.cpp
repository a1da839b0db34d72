#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>

#include "actions/planner.hpp"
#include "config/enumerate.hpp"
#include "core/scenario_file.hpp"

namespace sa::core {
namespace {

constexpr const char* kMini = R"(
# a tiny scenario
component A process=0 "first"
component B process=0
component C process=1

invariant "pick one" one(A, B)
invariant "c needs b" C -> B

action swap remove=A add=B cost=12 "swap A for B"
action addc add=C cost=3

source A
target B,C
)";

TEST(ScenarioFile, ParsesComponents) {
  const auto scenario = parse_scenario_text(kMini);
  EXPECT_EQ(scenario.registry->size(), 3U);
  EXPECT_EQ(scenario.registry->process(scenario.registry->require("C")), 1U);
  EXPECT_EQ(scenario.registry->info(0).description, "first");
}

TEST(ScenarioFile, ParsesInvariants) {
  const auto scenario = parse_scenario_text(kMini);
  ASSERT_EQ(scenario.invariants->invariants().size(), 2U);
  EXPECT_EQ(scenario.invariants->invariants()[0].name, "pick one");
  const auto a = config::Configuration::of(*scenario.registry, {"A"});
  const auto ab = config::Configuration::of(*scenario.registry, {"A", "B"});
  EXPECT_TRUE(scenario.invariants->satisfied(a));
  EXPECT_FALSE(scenario.invariants->satisfied(ab));
}

TEST(ScenarioFile, ParsesActions) {
  const auto scenario = parse_scenario_text(kMini);
  ASSERT_EQ(scenario.actions->size(), 2U);
  const auto& swap = scenario.actions->action(scenario.actions->require("swap"));
  EXPECT_DOUBLE_EQ(swap.cost, 12.0);
  EXPECT_EQ(swap.operation_text(*scenario.registry), "A -> B");
  EXPECT_EQ(swap.description, "swap A for B");
  const auto& addc = scenario.actions->action(scenario.actions->require("addc"));
  EXPECT_EQ(addc.operation_text(*scenario.registry), "+C");
}

TEST(ScenarioFile, ParsesEndpointsAsNamesAndBits) {
  const auto scenario = parse_scenario_text(kMini);
  ASSERT_TRUE(scenario.source && scenario.target);
  EXPECT_EQ(*scenario.source, config::Configuration::of(*scenario.registry, {"A"}));
  EXPECT_EQ(*scenario.target, config::Configuration::of(*scenario.registry, {"B", "C"}));

  const auto bits = parse_scenario_text(
      "component X process=0\ncomponent Y process=0\nsource 01\ntarget 10\n");
  EXPECT_EQ(*bits.source, config::Configuration::of(*bits.registry, {"X"}));
  EXPECT_EQ(*bits.target, config::Configuration::of(*bits.registry, {"Y"}));
}

TEST(ScenarioFile, ParsedScenarioPlansEndToEnd) {
  const auto scenario = parse_scenario_text(kMini);
  const auto safe = config::enumerate_safe_exhaustive(*scenario.invariants);
  const actions::SafeAdaptationGraph sag(*scenario.actions, safe);
  const actions::PathPlanner planner(sag);
  const auto plan = planner.minimum_path(*scenario.source, *scenario.target);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->action_names(*scenario.actions), "swap, addc");
  EXPECT_DOUBLE_EQ(plan->total_cost, 15.0);
}

TEST(ScenarioFile, ErrorsCarryLineNumbers) {
  const auto expect_error_at = [](const std::string& text, std::size_t line) {
    try {
      parse_scenario_text(text);
      FAIL() << text;
    } catch (const ScenarioParseError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
  };
  expect_error_at("bogus directive\n", 1);
  expect_error_at("component A process=0\n\ncomponent A process=0\n", 3);   // duplicate
  expect_error_at("component A\n", 1);                                      // missing process
  expect_error_at("component A process=-1\n", 1);                          // negative process
  expect_error_at("component A process=1x\n", 1);                          // trailing junk
  expect_error_at("component A process=0\ninvariant \"x\" B -> A\n", 2);    // unknown comp
  expect_error_at("component A process=0\naction x cost=1\n", 2);           // empty action
  expect_error_at("component A process=0\naction x add=A\n", 2);            // missing cost
  expect_error_at("component A process=0\nsource B\n", 2);                  // unknown name
  expect_error_at("component A process=0\ninvariant \"open A\n", 2);        // bad quoting
  expect_error_at("invariant \"x\" true\ncomponent A process=0\n", 2);      // late component
  expect_error_at("component A process=0\nsource 0 1\n", 2);                // extra token

  // process lines
  const std::string components = "component A process=0\ncomponent B process=1\n";
  expect_error_at(components + "process 0 stage=0\nprocess 0 stage=1\n", 4);  // duplicate id
  expect_error_at(components + "process 0\n", 3);                              // missing stage
  expect_error_at(components + "process 0 \"stage=1\"\n", 3);                  // quoted, no key
  expect_error_at(components + "process 0 stage=-1\n", 3);                     // negative
  expect_error_at(components + "process 0 stage=x\n", 3);                      // non-numeric
  expect_error_at(components + "process 0 stage=\n", 3);                       // empty
  expect_error_at(components + "process 0 stage=1x\n", 3);                     // trailing
  expect_error_at(components + "process x stage=0\n", 3);                      // bad id
  expect_error_at(components + "process -1 stage=0\n", 3);                     // negative id
  expect_error_at(components + "process\n", 3);                                // no id
  expect_error_at(components + "process 64 stage=0\n", 3);                     // id >= 64
  expect_error_at(components + "process 0 stage=0 speed=2\n", 3);              // unknown key
  expect_error_at(components + "process 0 stage=0 fast\n", 3);                 // stray token
  // No component lives on process 2, or none yet: process lines follow the
  // components.
  expect_error_at(components + "process 1 stage=1\n\nprocess 2 stage=1\n", 5);
  expect_error_at("process 0 stage=0\n" + components, 1);
}

TEST(ScenarioFile, ParsesProcessStages) {
  const auto scenario = parse_scenario_text(
      "component A process=0\ncomponent C process=1\ncomponent E process=5\n"
      "process 1 stage=0 \"sender, stage=9 in a description\"\nprocess 0 stage=3\n");
  EXPECT_EQ(scenario.stages, (std::map<config::ProcessId, int>{{0, 3}, {1, 0}}));
  EXPECT_EQ(scenario.stage_of(0), 3);
  EXPECT_EQ(scenario.stage_of(1), 0);
  EXPECT_EQ(scenario.stage_of(5), 5);  // no process line: stage = id
  EXPECT_TRUE(parse_scenario_text(kMini).stages.empty());
}

TEST(ScenarioFile, CommentsAndQuotesInTokens) {
  const auto scenario = parse_scenario_text(
      "component A process=0 \"has # inside\"  # trailing comment\n"
      "component B process=0\n"
      "invariant \"pick # one\" one(A, B)  # not part of the expression\n");
  EXPECT_EQ(scenario.registry->info(0).description, "has # inside");
  ASSERT_EQ(scenario.invariants->invariants().size(), 1U);
  EXPECT_EQ(scenario.invariants->invariants()[0].name, "pick # one");
  EXPECT_EQ(scenario.invariants->invariants()[0].predicate->to_string(),
            expr::parse("one(A, B)")->to_string());
}

TEST(ScenarioFile, PaperScenarioFileReproducesTheMap) {
  const std::string path = std::string(SA_REPO_ROOT) + "/examples/paper.scenario";
  std::ifstream file(path);
  ASSERT_TRUE(file.is_open()) << "cannot open " << path;
  const auto scenario = parse_scenario(file);
  EXPECT_EQ(scenario.registry->size(), 7U);
  EXPECT_EQ(scenario.actions->size(), 17U);

  const auto safe = config::enumerate_safe_pruned(*scenario.invariants);
  EXPECT_EQ(safe.size(), 8U);
  const actions::SafeAdaptationGraph sag(*scenario.actions, safe);
  const actions::PathPlanner planner(sag);
  const auto plan = planner.minimum_path(*scenario.source, *scenario.target);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->action_names(*scenario.actions), "A2, A17, A1, A16, A4");
  EXPECT_DOUBLE_EQ(plan->total_cost, 50.0);
}

}  // namespace
}  // namespace sa::core
