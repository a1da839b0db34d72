// Textual scenario format: the analysis-phase artifacts (components,
// dependency invariants, adaptive actions with costs, source/target
// configurations) and reset stages as a declarative file, read by `sa_plan`,
// `sa_run`, `sa_check --scenario <path>` and the paper's embedded case study.
//
// Line-oriented grammar ('#' starts a comment; blank lines ignored):
//
//   component <name> process=<id> ["description"]
//   process <id> stage=<n> ["description"]
//   invariant "<name>" <dependency expression>
//   action <name> [remove=<c1,c2>] [add=<c3>] cost=<ms> ["description"]
//   source <bit-string | comma-separated component names>
//   target <bit-string | comma-separated component names>
//
// Components come first. A `process` line (id < 64, one per id) follows the
// components on that process and sets its reset stage; lower stages quiesce
// first, and a process without one resets in stage = its id.
//
// Example (from examples/paper.scenario):
//
//   component E1 process=0 "DES 64-bit encoder"
//   process 0 stage=0 "video sender"
//   invariant "security constraint" one(E1, E2)
//   action A1 remove=E1 add=E2 cost=10 "replace E1 with E2"
//   source 0100101
//   target D5,D3,E2
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "actions/action.hpp"
#include "config/invariants.hpp"

namespace sa::core {

/// Error with the 1-based line number of the offending input.
class ScenarioParseError : public std::runtime_error {
 public:
  ScenarioParseError(const std::string& message, std::size_t line)
      : std::runtime_error("line " + std::to_string(line) + ": " + message), line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// The registry lives behind a unique_ptr because the invariant set and
/// action table hold pointers into it: keeping its address stable makes the
/// whole struct safely movable.
struct ParsedScenario {
  std::unique_ptr<config::ComponentRegistry> registry;
  std::unique_ptr<config::InvariantSet> invariants;
  std::unique_ptr<actions::ActionTable> actions;
  std::optional<config::Configuration> source;
  std::optional<config::Configuration> target;
  /// Reset stage per `process` line.
  std::map<config::ProcessId, int> stages;

  /// The reset stage of `process`: its `process` line's, else its id.
  int stage_of(config::ProcessId process) const;
};

ParsedScenario parse_scenario(std::istream& input);
ParsedScenario parse_scenario_text(std::string_view text);

/// Parses the file at `path` for a front end that runs its source -> target
/// request; throws std::runtime_error naming the path when it cannot.
ParsedScenario load_scenario(const std::string& path);

class SafeAdaptationSystem;

/// Registers `scenario`'s components, invariants and (in file order) the
/// actions `keep` accepts, all when it is empty, on a not-yet-finalized
/// system. The caller attaches processes at `scenario.stage_of(process)`.
void configure_system(SafeAdaptationSystem& system, const ParsedScenario& scenario,
                      const std::function<bool(const actions::AdaptiveAction&)>& keep = {});

}  // namespace sa::core
