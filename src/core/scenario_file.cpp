#include "core/scenario_file.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/system.hpp"
#include "util/strings.hpp"

namespace sa::core {

namespace {

/// One whitespace-separated word of a scenario line, or a quoted string
/// ("...") with the quotes stripped; `text` points into the line.
struct Token {
  std::string_view text;
  bool quoted = false;
};

/// Splits `line` into `tokens` (cleared first), up to a comment.
void tokenize(std::string_view line, std::size_t line_number, std::vector<Token>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    if (line[i] == '#') break;  // comment to end of line
    if (line[i] == '"') {
      const std::size_t close = line.find('"', i + 1);
      if (close == std::string_view::npos) {
        throw ScenarioParseError("unterminated quoted string", line_number);
      }
      tokens.push_back({line.substr(i + 1, close - i - 1), true});
      i = close + 1;
      continue;
    }
    std::size_t end = i;
    while (end < line.size() && !std::isspace(static_cast<unsigned char>(line[end])) &&
           line[end] != '#') {
      ++end;
    }
    tokens.push_back({line.substr(i, end - i), false});
    i = end;
  }
}

/// The value of a "key=value" token, if the token has the given key.
std::optional<std::string_view> keyed(std::string_view token, std::string_view key) {
  if (!token.starts_with(key) || token.size() == key.size() || token[key.size()] != '=') {
    return std::nullopt;
  }
  return token.substr(key.size() + 1);
}

/// The non-empty, trimmed names of a comma-separated list.
std::vector<std::string> split_names(std::string_view list) {
  std::vector<std::string> names;
  while (true) {
    const std::size_t comma = list.find(',');
    const std::string_view name = util::trim(list.substr(0, comma));
    if (!name.empty()) names.emplace_back(name);
    if (comma == std::string_view::npos) return names;
    list.remove_prefix(comma + 1);
  }
}

config::Configuration parse_configuration(std::string_view text,
                                          const config::ComponentRegistry& registry,
                                          std::size_t line_number) {
  const bool is_bits = text.find_first_not_of("01") == std::string_view::npos &&
                       text.size() == registry.size() && !text.empty();
  try {
    if (is_bits) return config::Configuration::from_bit_string(std::string(text), registry.size());
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

ParsedScenario parse_scenario_text(std::string_view text) {
  ParsedScenario scenario;
  scenario.registry = std::make_unique<config::ComponentRegistry>();
  scenario.invariants = std::make_unique<config::InvariantSet>(*scenario.registry);
  scenario.actions = std::make_unique<actions::ActionTable>(*scenario.registry);

  std::size_t line_number = 0;
  bool components_frozen = false;
  std::vector<Token> tokens;

  while (!text.empty()) {
    ++line_number;
    const std::size_t newline = text.find('\n');
    const std::string_view line = text.substr(0, newline);
    text.remove_prefix(newline == std::string_view::npos ? text.size() : newline + 1);
    tokenize(line, line_number, tokens);
    if (tokens.empty()) continue;
    const std::string_view directive = tokens[0].text;

    try {
      if (directive == "component") {
        if (components_frozen) {
          throw ScenarioParseError("components must be declared before invariants/actions",
                                   line_number);
        }
        if (tokens.size() < 3) {
          throw ScenarioParseError("component needs a name and process=<id>", line_number);
        }
        const auto id = keyed(tokens[2].text, "process");
        const auto process = id ? util::parse_u64(*id) : std::nullopt;
        if (!process || *process > std::numeric_limits<config::ProcessId>::max()) {
          throw ScenarioParseError("expected process=<id>", line_number);
        }
        const std::string_view description = tokens.size() > 3 ? tokens[3].text : "";
        scenario.registry->add(std::string(tokens[1].text),
                               static_cast<config::ProcessId>(*process), std::string(description));
      } else if (directive == "process") {
        const auto id = tokens.size() > 1 ? util::parse_u64(tokens[1].text) : std::nullopt;
        if (!id || *id >= 64) throw ScenarioParseError("process needs an id below 64", line_number);
        const auto process = static_cast<config::ProcessId>(*id);
        if (std::ranges::count(scenario.registry->processes(), process) == 0) {
          throw ScenarioParseError("process " + std::string(tokens[1].text) + " hosts no component",
                                   line_number);
        }
        const auto value = tokens.size() > 2 && !tokens[2].quoted ? keyed(tokens[2].text, "stage")
                                                                   : std::nullopt;
        const auto stage = value ? util::parse_u64(*value) : std::nullopt;
        if (!stage || *stage > std::numeric_limits<int>::max() || tokens.size() > 4 ||
            (tokens.size() == 4 && !tokens[3].quoted)) {
          throw ScenarioParseError("expected process <id> stage=<n> [\"description\"]",
                                   line_number);
        }
        if (!scenario.stages.emplace(process, static_cast<int>(*stage)).second) {
          throw ScenarioParseError("duplicate process " + std::string(tokens[1].text),
                                   line_number);
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
        if (name_pos == std::string_view::npos || name_end == std::string_view::npos) {
          throw ScenarioParseError("invariant name must be quoted", line_number);
        }
        const std::string_view expression =
            util::trim(line.substr(name_end + 1, line.find('#', name_end) - name_end - 1));
        scenario.invariants->add(std::string(tokens[1].text), expression);
      } else if (directive == "action") {
        components_frozen = true;
        if (tokens.size() < 3) {
          throw ScenarioParseError("action needs a name and cost=<ms>", line_number);
        }
        std::vector<std::string> removes;
        std::vector<std::string> adds;
        std::optional<double> cost;
        std::string_view description;
        for (std::size_t t = 2; t < tokens.size(); ++t) {
          const std::string_view token = tokens[t].text;
          if (const auto value = keyed(token, "remove")) {
            removes = split_names(*value);
          } else if (const auto added = keyed(token, "add")) {
            adds = split_names(*added);
          } else if (const auto c = keyed(token, "cost")) {
            cost = std::stod(std::string(*c));
          } else {
            description = token;
          }
        }
        if (!cost) throw ScenarioParseError("action needs cost=<ms>", line_number);
        scenario.actions->add(std::string(tokens[1].text), std::move(removes), std::move(adds),
                              *cost, std::string(description));
      } else if (directive == "source" || directive == "target") {
        if (tokens.size() != 2) {
          throw ScenarioParseError(std::string(directive) + " needs one configuration",
                                   line_number);
        }
        const auto config = parse_configuration(tokens[1].text, *scenario.registry, line_number);
        (directive == "source" ? scenario.source : scenario.target) = config;
      } else {
        throw ScenarioParseError("unknown directive '" + std::string(directive) + "'",
                                 line_number);
      }
    } catch (const ScenarioParseError&) {
      throw;
    } catch (const std::exception& e) {
      throw ScenarioParseError(e.what(), line_number);
    }
  }
  return scenario;
}

ParsedScenario parse_scenario(std::istream& input) {
  const std::string text{std::istreambuf_iterator<char>(input), std::istreambuf_iterator<char>()};
  return parse_scenario_text(text);
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
  for (const auto& action : scenario.actions->actions()) {
    if (keep && !keep(action)) continue;
    system.add_action(action.name, action.removes.names(registry), action.adds.names(registry),
                      action.cost, action.description);
  }
}

}  // namespace sa::core
