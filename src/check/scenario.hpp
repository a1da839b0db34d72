// Model-checking scenarios: self-contained protocol instances the bounded
// interleaving explorer (check/explorer.hpp) runs against.
//
// A Scenario owns everything the sans-I/O cores need — component registry,
// invariant set, action table, the derived safe-configuration set / SAG /
// planner — plus the agent topology (process -> reset stage) and the
// source/target configurations of the one adaptation request each run issues.
// Three instances are provided:
//
//   tiny   one process, two components, a single-step plan. Small enough to
//          explore exhaustively, including the full §4.4 failure chain.
//   pair   two processes coupled by cross-process dependency invariants, so
//          the only path is a joint two-process step with staged resets. This
//          is the smallest scenario where the §4.3 global-safe-state rule has
//          teeth (a resume sent one adapt-done early is observable).
//   paper  the §5 case study (64->128-bit hardening, three processes) —
//          explored under depth/state bounds rather than exhaustively. It is
//          the embedded examples/paper.scenario, converted by scenario_from
//          like any user-written scenario file.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "actions/planner.hpp"
#include "actions/sag.hpp"
#include "config/enumerate.hpp"
#include "config/invariants.hpp"
#include "config/registry.hpp"
#include "core/scenario_file.hpp"
#include "proto/core/agent_core.hpp"
#include "proto/core/manager_core.hpp"

namespace sa::check {

struct Scenario {
  std::string name;

  // Analysis data; registry behind a stable address because the invariant
  // set, action table, and derived structures point into it.
  std::unique_ptr<config::ComponentRegistry> registry;
  std::unique_ptr<config::InvariantSet> invariants;
  std::unique_ptr<actions::ActionTable> actions;
  /// Every safe configuration, ascending (config::enumerate_safe_pruned);
  /// the model judges each committed step by a binary search here.
  std::vector<config::Configuration> safe_configs;
  std::unique_ptr<actions::SafeAdaptationGraph> sag;
  std::unique_ptr<actions::PathPlanner> planner;

  /// Agent topology: process id -> reset stage (lower stages quiesce first).
  std::map<config::ProcessId, int> stages;

  config::Configuration source;
  config::Configuration target;

  proto::ManagerConfig manager_config;
  proto::AgentConfig agent_config;

  /// Virtual one-way message latency between manager and agents (both
  /// directions), mirroring the deterministic simulator's control channel.
  runtime::Time latency = runtime::ms(2);
};

Scenario make_tiny_scenario();
Scenario make_pair_scenario();
Scenario make_paper_check_scenario();

/// A parsed scenario file as a checker scenario, every hosting process at
/// parsed.stage_of(process). Throws std::bad_optional_access without a
/// source or target.
Scenario scenario_from(std::string name, core::ParsedScenario parsed);

/// Dispatch by name ("tiny" | "pair" | "paper"); any other name is read as a
/// scenario file path (core::load_scenario, which throws when it is not one).
Scenario make_scenario(std::string_view name);

}  // namespace sa::check
