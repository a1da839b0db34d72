// The paper's §5 case study, exactly as published: the component set,
// system/dependency invariants, the Table 2 action table with costs, the
// source/target configurations of the 64-bit -> 128-bit hardening request,
// and Fig. 3's reset stages.
//
// Its only description is examples/paper.scenario, which the build embeds;
// everything here reads the parsed text. Its invariants, by the names every
// golden trace records:
//   resource constraint  one(D1, D2, D3)
//   security constraint  one(E1, E2)
//   E1 dependency        E1 -> (D1 | D2) & D4
//   E2 dependency        E2 -> (D3 | D2) & D5
//
// Tests and benchmarks use this module to reproduce Table 1 (safe
// configuration set), Figure 4 (SAG), and the MAP "A2, A17, A1, A16, A4".
#pragma once

#include <map>
#include <memory>
#include <string_view>

#include "actions/action.hpp"
#include "config/enumerate.hpp"
#include "config/invariants.hpp"
#include "crypto/codec_filters.hpp"
#include "proto/adaptable_process.hpp"

namespace sa::core {

/// Process ids of the case study (Figure 3), as examples/paper.scenario
/// places the components.
inline constexpr config::ProcessId kServerProcess = 0;   ///< video sender
inline constexpr config::ProcessId kHandheldProcess = 1; ///< iPAQ-class client
inline constexpr config::ProcessId kLaptopProcess = 2;   ///< Toughbook-class client

/// The text of examples/paper.scenario, as embedded at build time.
std::string_view paper_scenario_text();

/// Registers E1, E2 (server), D1, D2, D3 (hand-held), D4, D5 (laptop) in the
/// order that makes Configuration bit strings match the paper's
/// (D5, D4, D3, D2, D1, E2, E1) vectors.
void register_paper_components(config::ComponentRegistry& registry);

/// Source (0100101) = {D4, D1, E1} and target (1010010) = {D5, D3, E2}, over a
/// registry that holds the paper's components in file order.
config::Configuration paper_source(const config::ComponentRegistry& registry);
config::Configuration paper_target(const config::ComponentRegistry& registry);

/// Fig. 3's reset stage per process: the server (the video sender) quiesces
/// in stage 0, both clients in stage 1.
const std::map<config::ProcessId, int>& paper_stages();

/// Filter factory instantiating the case study's codec components by name
/// (E1/E2 encoders, D1..D5 decoders) with shared `keys`.
proto::FilterFactory paper_filter_factory(crypto::DesKeys keys = {});

class SafeAdaptationSystem;

/// Which slice of Table 2 to register — used by ablation experiments that
/// force the planner onto a particular action tier. The tier of an action
/// follows from its shape: one component out and one in is a single, more is
/// combined, and an empty side (insertion or removal) is structural.
enum class PaperActionSet {
  All,           ///< A1..A17 (the paper's table)
  SinglesOnly,   ///< A1..A5, A16, A17 (one component per action)
  CombinedOnly,  ///< A6..A15 pair/triple actions, plus structural A16/A17
};

/// Registers the paper's components, invariants, and Table 2 actions (in
/// file order) on a not-yet-finalized SafeAdaptationSystem.
void configure_paper_system(SafeAdaptationSystem& system,
                            PaperActionSet action_set = PaperActionSet::All);

/// Everything above bundled, for harnesses. The registry lives behind a
/// unique_ptr because the invariant set and action table point into it:
/// a stable address makes the struct safely movable (no reliance on NRVO).
struct PaperScenario {
  std::unique_ptr<config::ComponentRegistry> registry;
  std::unique_ptr<config::InvariantSet> invariants;
  std::unique_ptr<actions::ActionTable> actions;
  config::Configuration source;
  config::Configuration target;
};

/// Parses the embedded examples/paper.scenario afresh.
PaperScenario make_paper_scenario();

}  // namespace sa::core
