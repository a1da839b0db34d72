// sa_plan — the detection-and-setup phase as a command-line tool.
//
// Reads a scenario file (see src/core/scenario_file.hpp for the format),
// enumerates the safe configuration set, builds the safe adaptation graph,
// and prints the minimum adaptation path plus ranked alternatives.
//
//   sa_plan <scenario-file> [--paths N] [--dot FILE] [--lazy]
//
//   --paths N   also print the N cheapest alternative paths (default 3)
//   --dot FILE  write the SAG as Graphviz, MAP edges highlighted
//   --lazy      plan with the A* partial-exploration planner instead of the
//               full-SAG pipeline (prints exploration statistics)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "actions/lazy_planner.hpp"
#include "actions/planner.hpp"
#include "config/enumerate.hpp"
#include "core/scenario_file.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s <scenario-file> [--paths N] [--dot FILE] [--lazy]\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sa;

  const char* path = nullptr;
  std::size_t ranked_paths = 3;
  const char* dot_path = nullptr;
  bool lazy = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paths") == 0 && i + 1 < argc) {
      ranked_paths = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--dot") == 0 && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--lazy") == 0) {
      lazy = true;
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      path = argv[i];
    }
  }
  if (!path) return usage(argv[0]);

  core::ParsedScenario scenario;
  try {
    scenario = core::load_scenario(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  const auto& registry = *scenario.registry;
  std::printf("components: %zu   invariants: %zu   actions: %zu\n", registry.size(),
              scenario.invariants->invariants().size(), scenario.actions->size());

  const auto safe = config::enumerate_safe_pruned(*scenario.invariants);
  std::printf("safe configurations: %zu\n", safe.size());
  for (const auto& config : safe) {
    std::printf("  %s  {%s}\n", config.to_bit_string(registry.size()).c_str(),
                config.describe(registry).c_str());
  }

  if (!scenario.invariants->satisfied(*scenario.source)) {
    std::fprintf(stderr, "source configuration is UNSAFE; violations:\n");
    for (const auto& name : scenario.invariants->violations(*scenario.source)) {
      std::fprintf(stderr, "  %s\n", name.c_str());
    }
    return 1;
  }
  if (!scenario.invariants->satisfied(*scenario.target)) {
    std::fprintf(stderr, "target configuration is UNSAFE\n");
    return 1;
  }

  if (lazy) {
    const actions::LazyPathPlanner planner(*scenario.actions, *scenario.invariants);
    const auto plan = planner.minimum_path(*scenario.source, *scenario.target);
    if (!plan) {
      std::printf("\nNO safe adaptation path exists.\n");
      return 3;
    }
    std::printf("\nminimum adaptation path (lazy A*): %s  (cost %.0f)\n",
                plan->action_names(*scenario.actions).c_str(), plan->total_cost);
    std::printf("explored %zu configurations (%zu generated, %zu invariant checks)\n",
                planner.last_stats().expanded, planner.last_stats().generated,
                planner.last_stats().safe_checked);
    return 0;
  }

  const actions::SafeAdaptationGraph sag(*scenario.actions, safe);
  std::printf("SAG: %zu nodes, %zu adaptation steps\n", sag.node_count(), sag.edge_count());
  const actions::PathPlanner planner(sag);
  const auto plans =
      planner.ranked_paths(*scenario.source, *scenario.target, std::max<std::size_t>(1, ranked_paths));
  if (plans.empty()) {
    std::printf("\nNO safe adaptation path exists from {%s} to {%s}.\n",
                scenario.source->describe(registry).c_str(),
                scenario.target->describe(registry).c_str());
    return 3;
  }
  std::printf("\nminimum adaptation path: %s  (cost %.0f)\n",
              plans[0].action_names(*scenario.actions).c_str(), plans[0].total_cost);
  for (std::size_t i = 1; i < plans.size(); ++i) {
    std::printf("alternative #%zu: %s  (cost %.0f)\n", i,
                plans[i].action_names(*scenario.actions).c_str(), plans[i].total_cost);
  }
  for (const auto& step : plans[0].steps) {
    const auto& action = scenario.actions->action(step.action);
    std::printf("  %-4s %-24s {%s} -> {%s}\n", action.name.c_str(),
                action.operation_text(registry).c_str(), step.from.describe(registry).c_str(),
                step.to.describe(registry).c_str());
  }

  if (dot_path) {
    // Highlight the MAP's edges in the DOT output.
    std::vector<graph::EdgeId> highlight;
    for (const auto& step : plans[0].steps) {
      const auto from = sag.node_of(step.from);
      if (!from) continue;
      for (const graph::EdgeId edge : sag.graph().out_edges(*from)) {
        if (sag.graph().edge(edge).to == *sag.node_of(step.to) &&
            static_cast<actions::ActionId>(sag.graph().edge(edge).label) == step.action) {
          highlight.push_back(edge);
        }
      }
    }
    std::ofstream dot(dot_path);
    dot << sag.to_dot(highlight);
    std::printf("\nSAG written to %s (MAP highlighted)\n", dot_path);
  }
  return 0;
}
