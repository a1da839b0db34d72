#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "actions/planner.hpp"
#include "config/enumerate.hpp"
#include "core/paper_scenario.hpp"
#include "core/system.hpp"

namespace sa::core {
namespace {

TEST(PaperScenario, ComponentLayoutMatchesFigure3) {
  const PaperScenario scenario = make_paper_scenario();
  EXPECT_EQ(scenario.registry->size(), 7U);
  EXPECT_EQ(scenario.registry->process(scenario.registry->require("E1")), kServerProcess);
  EXPECT_EQ(scenario.registry->process(scenario.registry->require("E2")), kServerProcess);
  EXPECT_EQ(scenario.registry->process(scenario.registry->require("D1")), kHandheldProcess);
  EXPECT_EQ(scenario.registry->process(scenario.registry->require("D2")), kHandheldProcess);
  EXPECT_EQ(scenario.registry->process(scenario.registry->require("D3")), kHandheldProcess);
  EXPECT_EQ(scenario.registry->process(scenario.registry->require("D4")), kLaptopProcess);
  EXPECT_EQ(scenario.registry->process(scenario.registry->require("D5")), kLaptopProcess);
}

TEST(PaperScenario, SourceAndTargetBitVectors) {
  const PaperScenario scenario = make_paper_scenario();
  EXPECT_EQ(scenario.source.describe(*scenario.registry), "D4,D1,E1");
  EXPECT_EQ(scenario.target.describe(*scenario.registry), "D5,D3,E2");
  EXPECT_EQ(scenario.source.to_bit_string(7), "0100101");
  EXPECT_EQ(scenario.target.to_bit_string(7), "1010010");
}

TEST(PaperScenario, Table1SafeConfigurationSet) {
  const PaperScenario scenario = make_paper_scenario();
  const auto safe = config::enumerate_safe_exhaustive(*scenario.invariants);
  ASSERT_EQ(safe.size(), 8U);
  std::set<std::string> bit_strings;
  for (const auto& config : safe) bit_strings.insert(config.to_bit_string(7));
  EXPECT_EQ(bit_strings, (std::set<std::string>{"0100101", "1100101", "1101001", "1101010",
                                                "1110010", "0101001", "1001010", "1010010"}));
}

TEST(PaperScenario, Table2ActionRoster) {
  const PaperScenario scenario = make_paper_scenario();
  ASSERT_EQ(scenario.actions->size(), 17U);
  // Spot-check entries across the cost tiers.
  const auto check = [&](const char* name, const char* operation, double cost) {
    const auto id = scenario.actions->find(name);
    ASSERT_TRUE(id.has_value()) << name;
    const auto& action = scenario.actions->action(*id);
    EXPECT_EQ(action.operation_text(*scenario.registry), operation) << name;
    EXPECT_DOUBLE_EQ(action.cost, cost) << name;
  };
  check("A1", "E1 -> E2", 10);
  check("A2", "D1 -> D2", 10);
  check("A5", "D4 -> D5", 10);
  check("A6", "D1,E1 -> D2,E2", 100);
  check("A10", "D4,D1 -> D5,D2", 50);
  check("A14", "D4,D1,E1 -> D5,D3,E2", 150);
  check("A16", "-D4", 10);
  check("A17", "+D5", 10);
}

TEST(PaperScenario, Figure4SagAndMap) {
  const PaperScenario scenario = make_paper_scenario();
  const auto safe = config::enumerate_safe_exhaustive(*scenario.invariants);
  const actions::SafeAdaptationGraph sag(*scenario.actions, safe);
  EXPECT_EQ(sag.node_count(), 8U);

  const actions::PathPlanner planner(sag);
  const auto plan = planner.minimum_path(scenario.source, scenario.target);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->total_cost, 50.0);
  EXPECT_EQ(plan->action_names(*scenario.actions), "A2, A17, A1, A16, A4");
}

TEST(PaperScenario, EmbeddedTextIsTheExampleFile) {
  const std::string path = std::string(SA_REPO_ROOT) + "/examples/paper.scenario";
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.is_open()) << "cannot open " << path;
  std::ostringstream text;
  text << file.rdbuf();
  EXPECT_EQ(paper_scenario_text(), text.str());
}

TEST(PaperScenario, Figure3Stages) {
  // The server (the video sender) quiesces first; both clients in stage 1.
  EXPECT_EQ(paper_stages(), (std::map<config::ProcessId, int>{
                                {kServerProcess, 0}, {kHandheldProcess, 1}, {kLaptopProcess, 1}}));
}

TEST(PaperScenario, ActionSetTiersFollowActionShapes) {
  const auto registered = [](PaperActionSet action_set) {
    SafeAdaptationSystem system;
    configure_paper_system(system, action_set);
    std::vector<std::string> names;
    for (const auto& action : system.action_table().actions()) names.push_back(action.name);
    return names;
  };
  using Names = std::vector<std::string>;
  EXPECT_EQ(registered(PaperActionSet::All),
            (Names{"A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11", "A12",
                   "A13", "A14", "A15", "A16", "A17"}));
  EXPECT_EQ(registered(PaperActionSet::SinglesOnly),
            (Names{"A1", "A2", "A3", "A4", "A5", "A16", "A17"}));
  EXPECT_EQ(registered(PaperActionSet::CombinedOnly),
            (Names{"A6", "A7", "A8", "A9", "A10", "A11", "A12", "A13", "A14", "A15", "A16",
                   "A17"}));
}

TEST(PaperScenario, FilterFactoryBuildsAllComponents) {
  const auto factory = paper_filter_factory();
  for (const char* name : {"E1", "E2", "D1", "D2", "D3", "D4", "D5"}) {
    const auto filter = factory(name);
    ASSERT_TRUE(filter) << name;
    EXPECT_EQ(filter->name(), name);
  }
  EXPECT_FALSE(factory("E9"));
}

TEST(PaperScenario, FactoryDecodersMatchPaperCompatibilities) {
  const auto factory = paper_filter_factory();
  const auto accepts = [&](const char* name) { return factory(name)->refract().at("accepts"); };
  EXPECT_EQ(accepts("D1"), "des64");
  EXPECT_EQ(accepts("D2"), "des64,des128");
  EXPECT_EQ(accepts("D3"), "des128");
  EXPECT_EQ(accepts("D4"), "des64");
  EXPECT_EQ(accepts("D5"), "des128");
}

}  // namespace
}  // namespace sa::core
