#include "core/scenario_file.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
#include <vector>

#include "core/system.hpp"
#include "util/strings.hpp"

namespace sa::core {

namespace {

/// Splits a scenario line into whitespace-separated tokens, keeping quoted
/// strings ("...") as single tokens with the quotes stripped; `quoted` marks
/// which tokens those were.
std::vector<std::string> tokenize(const std::string& line, std::size_t line_number,
                                  std::vector<bool>& quoted) {
  std::vector<std::string> tokens;
  quoted.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    if (line[i] == '#') break;  // comment to end of line
    if (line[i] == '"') {
      const std::size_t close = line.find('"', i + 1);
      if (close == std::string::npos) {
        throw ScenarioParseError("unterminated quoted string", line_number);
      }
      tokens.push_back(line.substr(i + 1, close - i - 1));
      quoted.push_back(true);
      i = close + 1;
      continue;
    }
    std::size_t end = i;
    while (end < line.size() && !std::isspace(static_cast<unsigned char>(line[end])) &&
           line[end] != '#') {
      ++end;
    }
    tokens.push_back(line.substr(i, end - i));
    quoted.push_back(false);
    i = end;
  }
  return tokens;
}

/// Parses "key=value" into value if the token has the given key.
std::optional<std::string> keyed(const std::string& token, std::string_view key) {
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) return std::nullopt;
  return token.substr(prefix.size());
}

std::vector<std::string> split_names(const std::string& list) {
  std::vector<std::string> names;
  for (const std::string& part : util::split(list, ',')) {
    const auto trimmed = util::trim(part);
    if (!trimmed.empty()) names.emplace_back(trimmed);
  }
  return names;
}

config::Configuration parse_configuration(const std::string& text,
                                          const config::ComponentRegistry& registry,
                                          std::size_t line_number) {
  const bool is_bits = text.find_first_not_of("01") == std::string::npos &&
                       text.size() == registry.size() && !text.empty();
  try {
    if (is_bits) return config::Configuration::from_bit_string(text, registry.size());
    config::Configuration config;
    for (const std::string& name : split_names(text)) {
      config = config.with(registry.require(name));
    }
    return config;
  } catch (const std::exception& e) {
    throw ScenarioParseError(e.what(), line_number);
  }
}

}  // namespace

ParsedScenario parse_scenario(std::istream& input) {
  ParsedScenario scenario;
  scenario.registry = std::make_unique<config::ComponentRegistry>();
  scenario.invariants = std::make_unique<config::InvariantSet>(*scenario.registry);
  scenario.actions = std::make_unique<actions::ActionTable>(*scenario.registry);

  std::string line;
  std::size_t line_number = 0;
  bool components_frozen = false;
  std::vector<bool> quoted;

  while (std::getline(input, line)) {
    ++line_number;
    const auto tokens = tokenize(line, line_number, quoted);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    try {
      if (directive == "component") {
        if (components_frozen) {
          throw ScenarioParseError("components must be declared before invariants/actions",
                                   line_number);
        }
        if (tokens.size() < 3) {
          throw ScenarioParseError("component needs a name and process=<id>", line_number);
        }
        const auto text = keyed(tokens[2], "process");
        const auto process = text ? util::parse_u64(*text) : std::nullopt;
        if (!process || *process > std::numeric_limits<config::ProcessId>::max()) {
          throw ScenarioParseError("expected process=<id>", line_number);
        }
        const std::string description = tokens.size() > 3 ? tokens[3] : "";
        scenario.registry->add(tokens[1], static_cast<config::ProcessId>(*process), description);
      } else if (directive == "process") {
        const auto id = tokens.size() > 1 ? util::parse_u64(tokens[1]) : std::nullopt;
        if (!id || *id >= 64) throw ScenarioParseError("process needs an id below 64", line_number);
        const auto process = static_cast<config::ProcessId>(*id);
        if (std::ranges::count(scenario.registry->processes(), process) == 0) {
          throw ScenarioParseError("process " + tokens[1] + " hosts no component", line_number);
        }
        const auto value = tokens.size() > 2 && !quoted[2] ? keyed(tokens[2], "stage")
                                                          : std::nullopt;
        const auto stage = value ? util::parse_u64(*value) : std::nullopt;
        if (!stage || *stage > std::numeric_limits<int>::max() || tokens.size() > 4 ||
            (tokens.size() == 4 && !quoted[3])) {
          throw ScenarioParseError("expected process <id> stage=<n> [\"description\"]",
                                   line_number);
        }
        if (!scenario.stages.emplace(process, static_cast<int>(*stage)).second) {
          throw ScenarioParseError("duplicate process " + tokens[1], line_number);
        }
      } else if (directive == "invariant") {
        components_frozen = true;
        if (tokens.size() < 3) {
          throw ScenarioParseError("invariant needs a name and an expression", line_number);
        }
        // The expression is everything after the name on the original line,
        // up to a comment.
        const std::size_t name_pos = line.find('"');
        const std::size_t name_end = line.find('"', name_pos + 1);
        if (name_pos == std::string::npos || name_end == std::string::npos) {
          throw ScenarioParseError("invariant name must be quoted", line_number);
        }
        const std::string expression(
            util::trim(line.substr(name_end + 1, line.find('#', name_end) - name_end - 1)));
        scenario.invariants->add(tokens[1], expression);
      } else if (directive == "action") {
        components_frozen = true;
        if (tokens.size() < 3) {
          throw ScenarioParseError("action needs a name and cost=<ms>", line_number);
        }
        std::vector<std::string> removes;
        std::vector<std::string> adds;
        std::optional<double> cost;
        std::string description;
        for (std::size_t t = 2; t < tokens.size(); ++t) {
          if (const auto value = keyed(tokens[t], "remove")) {
            removes = split_names(*value);
          } else if (const auto added = keyed(tokens[t], "add")) {
            adds = split_names(*added);
          } else if (const auto c = keyed(tokens[t], "cost")) {
            cost = std::stod(*c);
          } else {
            description = tokens[t];
          }
        }
        if (!cost) throw ScenarioParseError("action needs cost=<ms>", line_number);
        scenario.actions->add(tokens[1], removes, adds, *cost, description);
      } else if (directive == "source" || directive == "target") {
        if (tokens.size() != 2) {
          throw ScenarioParseError(directive + " needs one configuration", line_number);
        }
        const auto config = parse_configuration(tokens[1], *scenario.registry, line_number);
        (directive == "source" ? scenario.source : scenario.target) = config;
      } else {
        throw ScenarioParseError("unknown directive '" + directive + "'", line_number);
      }
    } catch (const ScenarioParseError&) {
      throw;
    } catch (const std::exception& e) {
      throw ScenarioParseError(e.what(), line_number);
    }
  }
  return scenario;
}

ParsedScenario parse_scenario_text(std::string_view text) {
  std::istringstream stream{std::string(text)};
  return parse_scenario(stream);
}

ParsedScenario load_scenario(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error(path + ": cannot open the scenario file");
  try {
    ParsedScenario scenario = parse_scenario(file);
    if (!scenario.source || !scenario.target) {
      throw std::runtime_error("scenario must declare both source and target");
    }
    return scenario;
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

int ParsedScenario::stage_of(config::ProcessId process) const {
  const auto it = stages.find(process);
  return it != stages.end() ? it->second : static_cast<int>(process);
}

void configure_system(SafeAdaptationSystem& system, const ParsedScenario& scenario,
                      const std::function<bool(const actions::AdaptiveAction&)>& keep) {
  const config::ComponentRegistry& registry = *scenario.registry;
  for (config::ComponentId id = 0; id < registry.size(); ++id) {
    const auto& info = registry.info(id);
    system.registry().add(info.name, info.process, info.description);
  }
  for (const auto& invariant : scenario.invariants->invariants()) {
    system.add_invariant(invariant.name, invariant.predicate->to_string());
  }
  const auto names = [&registry](const config::Configuration& components) {
    std::vector<std::string> out;
    for (const auto id : components.components(registry.size())) out.push_back(registry.name(id));
    return out;
  };
  for (const auto& action : scenario.actions->actions()) {
    if (keep && !keep(action)) continue;
    system.add_action(action.name, names(action.removes), names(action.adds), action.cost,
                      action.description);
  }
}

}  // namespace sa::core
