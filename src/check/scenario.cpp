#include "check/scenario.hpp"

#include <stdexcept>
#include <utility>

#include "core/paper_scenario.hpp"

namespace sa::check {

namespace {

/// Derives safe_configs/SAG/planner from the already-populated registry,
/// invariants, and actions of `s`.
void finalize(Scenario& s) {
  s.safe_configs = config::enumerate_safe_pruned(*s.invariants);
  s.sag = std::make_unique<actions::SafeAdaptationGraph>(*s.actions, s.safe_configs);
  s.planner = std::make_unique<actions::PathPlanner>(*s.sag);
}

}  // namespace

Scenario make_tiny_scenario() {
  Scenario s;
  s.name = "tiny";
  s.registry = std::make_unique<config::ComponentRegistry>();
  s.registry->add("A", 0, "incumbent component");
  s.registry->add("B", 0, "replacement component");
  s.invariants = std::make_unique<config::InvariantSet>(*s.registry);
  s.invariants->add("exclusive", "one(A, B)");
  s.actions = std::make_unique<actions::ActionTable>(*s.registry);
  s.actions->add("swap", {"A"}, {"B"}, 1.0, "replace A with B");
  s.actions->add("unswap", {"B"}, {"A"}, 1.0, "replace B with A");
  s.stages = {{0, 0}};
  s.source = config::Configuration::of(*s.registry, {"A"});
  s.target = config::Configuration::of(*s.registry, {"B"});
  finalize(s);
  return s;
}

Scenario make_pair_scenario() {
  Scenario s;
  s.name = "pair";
  s.registry = std::make_unique<config::ComponentRegistry>();
  s.registry->add("A", 0, "upstream incumbent");
  s.registry->add("B", 0, "upstream replacement");
  s.registry->add("C", 1, "downstream incumbent");
  s.registry->add("D", 1, "downstream replacement");
  s.invariants = std::make_unique<config::InvariantSet>(*s.registry);
  s.invariants->add("upstream exclusive", "one(A, B)");
  s.invariants->add("downstream exclusive", "one(C, D)");
  // A and C (and hence B and D) must change together: neither half-swapped
  // configuration is safe, so every plan step involves both processes.
  s.invariants->add("A needs C", "A -> C");
  s.invariants->add("C needs A", "C -> A");
  s.actions = std::make_unique<actions::ActionTable>(*s.registry);
  s.actions->add("swap", {"A", "C"}, {"B", "D"}, 1.0, "joint replacement");
  s.actions->add("unswap", {"B", "D"}, {"A", "C"}, 1.0, "joint reverse");
  // Process 0 is the upstream sender: it quiesces first, and the stage-1
  // agent drains in-flight data before blocking (global safe condition).
  s.stages = {{0, 0}, {1, 1}};
  s.source = config::Configuration::of(*s.registry, {"A", "C"});
  s.target = config::Configuration::of(*s.registry, {"B", "D"});
  finalize(s);
  return s;
}

Scenario scenario_from(std::string name, core::ParsedScenario parsed) {
  Scenario s;
  s.name = std::move(name);
  s.registry = std::move(parsed.registry);
  s.invariants = std::move(parsed.invariants);
  s.actions = std::move(parsed.actions);
  for (const config::ProcessId process : s.registry->processes()) {
    s.stages[process] = parsed.stage_of(process);
  }
  s.source = parsed.source.value();
  s.target = parsed.target.value();
  finalize(s);
  return s;
}

Scenario make_paper_check_scenario() {
  return scenario_from("paper", core::parse_scenario_text(core::paper_scenario_text()));
}

Scenario make_scenario(std::string_view name) {
  if (name == "tiny") return make_tiny_scenario();
  if (name == "pair") return make_pair_scenario();
  if (name == "paper") return make_paper_check_scenario();
  const std::string path(name);
  return scenario_from(path, core::load_scenario(path));
}

}  // namespace sa::check
