#include "core/paper_scenario.hpp"

#include "core/scenario_file.hpp"
#include "core/system.hpp"

namespace sa::core {

namespace {

/// The embedded scenario, parsed once and only read afterwards.
const ParsedScenario& paper() {
  static const ParsedScenario parsed = parse_scenario_text(paper_scenario_text());
  return parsed;
}

}  // namespace

void configure_paper_system(SafeAdaptationSystem& system, PaperActionSet action_set) {
  configure_system(system, paper(), [action_set](const actions::AdaptiveAction& action) {
    const std::size_t removed = action.removes.count();
    const std::size_t added = action.adds.count();
    if (removed == 0 || added == 0) return true;  // structural: A16, A17
    const bool single = removed == 1 && added == 1;
    return single ? action_set != PaperActionSet::CombinedOnly
                  : action_set != PaperActionSet::SinglesOnly;
  });
}

void register_paper_components(config::ComponentRegistry& registry) {
  const config::ComponentRegistry& from = *paper().registry;
  for (config::ComponentId id = 0; id < from.size(); ++id) {
    const auto& info = from.info(id);
    registry.add(info.name, info.process, info.description);
  }
}

config::Configuration paper_source(const config::ComponentRegistry&) { return *paper().source; }

config::Configuration paper_target(const config::ComponentRegistry&) { return *paper().target; }

const std::map<config::ProcessId, int>& paper_stages() { return paper().stages; }

proto::FilterFactory paper_filter_factory(crypto::DesKeys keys) {
  return [keys](const std::string& name) -> components::FilterPtr {
    if (name == "E1") return crypto::make_encoder_e1(keys);
    if (name == "E2") return crypto::make_encoder_e2(keys);
    if (name == "D1") return crypto::make_decoder("D1", /*accept64=*/true, /*accept128=*/false, keys);
    if (name == "D2") return crypto::make_decoder("D2", /*accept64=*/true, /*accept128=*/true, keys);
    if (name == "D3") return crypto::make_decoder("D3", /*accept64=*/false, /*accept128=*/true, keys);
    if (name == "D4") return crypto::make_decoder("D4", /*accept64=*/true, /*accept128=*/false, keys);
    if (name == "D5") return crypto::make_decoder("D5", /*accept64=*/false, /*accept128=*/true, keys);
    return nullptr;
  };
}

PaperScenario make_paper_scenario() {
  ParsedScenario parsed = parse_scenario_text(paper_scenario_text());
  return PaperScenario{std::move(parsed.registry), std::move(parsed.invariants),
                       std::move(parsed.actions), *parsed.source, *parsed.target};
}

}  // namespace sa::core
