#include <gtest/gtest.h>

#include <fstream>
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
  const auto expect_error_at = [](const char* text, std::size_t line) {
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
  expect_error_at("component A process=0\ninvariant \"x\" B -> A\n", 2);    // unknown comp
  expect_error_at("component A process=0\naction x cost=1\n", 2);           // empty action
  expect_error_at("component A process=0\naction x add=A\n", 2);            // missing cost
  expect_error_at("component A process=0\nsource B\n", 2);                  // unknown name
  expect_error_at("component A process=0\ninvariant \"open A\n", 2);        // bad quoting
  expect_error_at("invariant \"x\" true\ncomponent A process=0\n", 2);      // late component
  expect_error_at("component A process=0\nsource 0 1\n", 2);                // extra token
}

TEST(ScenarioFile, CommentsAndQuotesInTokens) {
  const auto scenario = parse_scenario_text(
      "component A process=0 \"has # inside\"  # trailing comment\n");
  EXPECT_EQ(scenario.registry->info(0).description, "has # inside");
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
