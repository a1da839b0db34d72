// sa_check: bounded interleaving explorer for the adaptation protocol.
//
// Model-checks the paper's safety argument (§4.3 global safe state, §4.4
// failure handling) over schedules of the sans-I/O Manager/Agent cores:
// message reordering across channels, bounded drops and duplicates, and
// timer-vs-message races. On a violation it prints — and optionally writes —
// a replayable counterexample schedule as JSON.
//
//   sa_check --scenario tiny --mode dfs --depth 200          # exhaustive
//   sa_check --scenario pair --dpor --symmetry --depth 0     # reduced, unbounded
//   sa_check --scenario paper --depth 24 --drops 1           # bounded
//   sa_check --scenario pair --fault resume-early --json-out ce.json
//   sa_check --replay ce.json                                # reproduce
//
// Exit codes: 0 no violation, 1 violation found, 2 usage/setup error.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "check/model.hpp"
#include "check/scenario.hpp"
#include "obs/event.hpp"
#include "obs/export.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --scenario tiny|pair|paper   protocol instance to check (default tiny)\n"
      << "  --mode dfs|random            search strategy (default dfs)\n"
      << "  --depth N                    max choices per run (default 80; 0 = unbounded)\n"
      << "  --max-states N               DFS state budget (default 200000)\n"
      << "  --runs N                     random walks (default 200, random mode)\n"
      << "  --seed S                     base seed for random walks (default 1)\n"
      << "  --drops N                    adversary message-drop budget (default 0)\n"
      << "  --dups N                     adversary duplication budget (default 0)\n"
      << "  --threads N                  search worker threads (default 1; 0 = all cores)\n"
      << "  --reorder                    allow cross-message reordering per channel\n"
      << "  --dpor / --no-dpor           partial-order reduction via sleep sets (default off)\n"
      << "  --symmetry / --no-symmetry   dedup on the agent-orbit canonical fingerprint\n"
      << "                               (default off; replay always stays concrete)\n"
      << "  --fault NAME                 inject a manager mutation (none |\n"
      << "                               resume-before-last-adapt-done | rollback-after-resume)\n"
      << "  --fail-process P             agent on P never reaches its safe state\n"
      << "  --json-out FILE              write the counterexample schedule as JSON\n"
      << "  --replay FILE                re-execute a counterexample schedule file\n";
  return 2;
}

void print_stats(const sa::check::ExploreResult& result) {
  const sa::check::ExploreStats& stats = result.stats;
  std::cout << "states explored:   " << stats.states_explored << "\n";
  for (std::size_t k = 0; k < stats.edges_by_kind.size(); ++k) {
    const std::string kind = sa::check::to_string(static_cast<sa::check::Choice::Kind>(k));
    std::cout << "  " << kind << " edges:" << std::string(10 - kind.size(), ' ')
              << stats.edges_by_kind[k] << "\n";
  }
  std::cout << "states deduped:    " << stats.states_deduped << "\n"
            << "runs completed:    " << stats.runs_completed << "\n"
            << "depth-capped runs: " << stats.depth_capped << "\n"
            << "sleep-pruned:      " << stats.sleep_pruned << "\n"
            << "max depth reached: " << stats.max_depth_reached << "\n"
            << "exhaustive:        " << (result.complete ? "yes" : "no (bounded)") << "\n";
  for (const auto& [outcome, count] : stats.outcomes) {
    std::cout << "outcome " << outcome << ": " << count << "\n";
  }
  // Its own block: like max depth reached, it varies with the thread count.
  if (stats.expanded_by_depth.empty()) return;
  constexpr std::size_t kBucket = 10;
  std::cout << "expanded frames by depth:\n";
  for (std::size_t lo = 0; lo < stats.expanded_by_depth.size(); lo += kBucket) {
    const std::size_t hi = std::min(lo + kBucket, stats.expanded_by_depth.size());
    std::size_t frames = 0;
    for (std::size_t d = lo; d < hi; ++d) frames += stats.expanded_by_depth[d];
    std::cout << "  depth " << lo << "-" << lo + kBucket - 1 << ": " << frames << "\n";
  }
}

// The model checker has no live flight recorder, so the post-mortem view
// comes from replaying the counterexample schedule: the model records its
// Fig. 1 / Fig. 2 transitions as the runtime drivers do (ManagerPhase /
// AgentState events; seq = transition index, time = model clock). The last
// of them are written next to the --json-out file so the tail travels with
// the reproducer, mirroring the seed-N.trace.jsonl sa_fuzz dumps next to its
// artifacts.
void write_trace_tail(const sa::check::Scenario& scenario,
                      const sa::check::ScheduleFile& file, const std::string& json_path) {
  constexpr std::size_t kTailEvents = 256;
  const sa::check::ReplayResult replayed =
      sa::check::replay(scenario, file.options, file.schedule);
  const std::vector<sa::obs::Event>& events = replayed.transitions;
  const auto kept = static_cast<std::ptrdiff_t>(std::min(events.size(), kTailEvents));
  const std::vector<sa::obs::Event> tail(events.end() - kept, events.end());
  std::filesystem::path tail_path(json_path);
  tail_path.replace_extension();
  tail_path += ".trace.jsonl";
  std::ofstream out(tail_path);
  sa::obs::write_jsonl(tail, out);
  std::cout << "transition tail (" << tail.size() << " events) written to "
            << tail_path.string() << "\n";
}

int run_replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "sa_check: cannot open " << path << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const sa::check::ScheduleFile file = sa::check::schedule_from_json(buffer.str());
  const sa::check::Scenario scenario = sa::check::make_scenario(file.scenario);
  const sa::check::ReplayResult result =
      sa::check::replay(scenario, file.options, file.schedule);
  if (!result.schedule_valid) {
    std::cerr << "sa_check: schedule diverged from the model (stale file?)\n";
    return 2;
  }
  std::cout << "replayed " << file.schedule.size() << " choices on scenario '"
            << file.scenario << "'\n";
  for (const sa::check::Violation& v : result.violations) {
    std::cout << "violation: " << v.description << "\n";
  }
  if (result.outcome) {
    std::cout << "outcome: " << sa::proto::to_string(result.outcome->outcome) << "\n";
  }
  return result.violations.empty() ? 0 : 1;
}

/// std::stoull without its acceptance of a leading '-', which wraps a
/// negative count to a huge one, or of trailing characters ("5x" reads 5).
std::size_t parse_count(const std::string& option, const std::string& text) {
  if (text.find('-') != std::string::npos) {
    throw std::invalid_argument(option + " must not be negative: " + text);
  }
  std::size_t used = 0;
  std::size_t count = 0;
  try {
    count = std::stoull(text, &used);
  } catch (const std::logic_error&) {  // no digits, or past 64 bits
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    throw std::invalid_argument(option + " is not a count: " + text);
  }
  return count;
}

/// parse_count for an option held in a narrower type: rejects a negative
/// count like parse_count, and one the type cannot hold.
template <typename Int>
Int parse_count_as(const std::string& option, const std::string& text) {
  const std::size_t count = parse_count(option, text);
  if (count > static_cast<std::size_t>(std::numeric_limits<Int>::max())) {
    throw std::invalid_argument(option + " is too large: " + text);
  }
  return static_cast<Int>(count);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name = "tiny";
  std::string mode = "dfs";
  sa::check::ExploreOptions options;
  std::size_t runs = 200;
  std::uint64_t seed = 1;
  std::optional<std::string> json_out;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--scenario") {
        scenario_name = value();
      } else if (arg == "--mode") {
        mode = value();
      } else if (arg == "--depth") {
        options.max_depth = parse_count_as<int>(arg, value());
      } else if (arg == "--max-states") {
        options.max_states = parse_count(arg, value());
      } else if (arg == "--runs") {
        runs = parse_count(arg, value());
      } else if (arg == "--seed") {
        seed = std::stoull(value());
      } else if (arg == "--drops") {
        options.drop_budget = parse_count_as<int>(arg, value());
      } else if (arg == "--dups") {
        options.dup_budget = parse_count_as<int>(arg, value());
      } else if (arg == "--threads") {
        options.threads = parse_count_as<int>(arg, value());
      } else if (arg == "--reorder") {
        options.reorder = true;
      } else if (arg == "--dpor") {
        options.dpor = true;
      } else if (arg == "--no-dpor") {
        options.dpor = false;
      } else if (arg == "--symmetry") {
        options.symmetry = true;
      } else if (arg == "--no-symmetry") {
        options.symmetry = false;
      } else if (arg == "--fault") {
        options.fault = sa::check::fault_from_string(value());
      } else if (arg == "--fail-process") {
        options.fail_to_reset.push_back(parse_count_as<sa::config::ProcessId>(arg, value()));
      } else if (arg == "--json-out") {
        json_out = value();
      } else if (arg == "--replay") {
        return run_replay(value());
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        std::cerr << "sa_check: unknown option " << arg << "\n";
        return usage(argv[0]);
      }
    }

    const sa::check::Scenario scenario = sa::check::make_scenario(scenario_name);
    sa::check::ExploreResult result;
    if (mode == "dfs") {
      result = sa::check::explore_dfs(scenario, options);
    } else if (mode == "random") {
      result = sa::check::explore_random(scenario, options, seed, runs);
    } else {
      std::cerr << "sa_check: unknown mode " << mode << "\n";
      return usage(argv[0]);
    }

    std::cout << "scenario: " << scenario_name << "  mode: " << mode
              << "  fault: " << sa::check::to_string(options.fault) << "\n";
    print_stats(result);

    if (!result.counterexample) {
      std::cout << "no safety violation found\n";
      return 0;
    }

    std::cout << "VIOLATION after " << result.counterexample->schedule.size()
              << " choices:\n";
    for (const std::string& v : result.counterexample->violations) {
      std::cout << "  " << v << "\n";
    }
    sa::check::ScheduleFile file;
    file.scenario = scenario_name;
    file.options = options;
    file.schedule = result.counterexample->schedule;
    file.violations = result.counterexample->violations;
    const std::string json = sa::check::to_json(file);
    std::cout << "counterexample schedule:\n" << json;
    if (json_out) {
      std::ofstream out(*json_out);
      out << json;
      std::cout << "written to " << *json_out << "\n";
      write_trace_tail(scenario, file, *json_out);
    }
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "sa_check: " << e.what() << "\n";
    return 2;
  }
}
