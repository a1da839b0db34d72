// Experiment X3 — §7 scalability: safe-configuration enumeration and SAG
// construction as the component count grows, with and without the paper's
// proposed collaborative-set decomposition.
//
// Workload: k independent "collaborative sets", each a 4-component cluster
// shaped like the case study (one(A,B) encoder pair, one(C,D) decoder pair,
// A -> C, B -> D) — invariants never straddle clusters, which is exactly the
// structure §7 proposes to exploit.
//
// Expected shape: exhaustive enumeration is exponential in the total
// component count (2^n); pruned DFS helps by a constant-ish factor; the
// decomposed strategy is exponential only in the largest cluster and thus
// near-linear in the number of clusters.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "util/log.hpp"

#include <cstdio>
#include <memory>

#include "actions/lazy_planner.hpp"
#include "actions/sag.hpp"
#include "config/enumerate.hpp"
#include "core/composite.hpp"
#include "core/system.hpp"

namespace {

using namespace sa;

struct Workload {
  config::ComponentRegistry registry;
  std::unique_ptr<config::InvariantSet> invariants;

  explicit Workload(std::size_t clusters) {
    for (std::size_t c = 0; c < clusters; ++c) {
      const std::string suffix = std::to_string(c);
      registry.add("A" + suffix, static_cast<config::ProcessId>(c));
      registry.add("B" + suffix, static_cast<config::ProcessId>(c));
      registry.add("C" + suffix, static_cast<config::ProcessId>(c));
      registry.add("D" + suffix, static_cast<config::ProcessId>(c));
    }
    invariants = std::make_unique<config::InvariantSet>(registry);
    for (std::size_t c = 0; c < clusters; ++c) {
      const std::string s = std::to_string(c);
      invariants->add("enc" + s, "one(A" + s + ", B" + s + ")");
      invariants->add("dec" + s, "one(C" + s + ", D" + s + ")");
      invariants->add("depA" + s, "A" + s + " -> C" + s);
      invariants->add("depB" + s, "B" + s + " -> D" + s);
    }
  }
};

void print_scaling_table() {
  std::printf("=== Scalability of safe-configuration enumeration (Section 7) ===\n");
  std::printf("%-12s %-12s %-12s %-18s %-18s\n", "components", "safe cfgs", "collab sets",
              "exhaustive checks", "decomposed checks");
  for (std::size_t clusters = 1; clusters <= 5; ++clusters) {
    const Workload workload(clusters);
    const auto safe = config::enumerate_safe_exhaustive(*workload.invariants);
    const auto sets = config::collaborative_sets(*workload.invariants);
    const std::size_t n = workload.registry.size();
    // Work proxies: exhaustive evaluates all 2^n configurations; decomposed
    // evaluates 2^|set| per set.
    const double exhaustive_checks = static_cast<double>(1ULL << n);
    double decomposed_checks = 0;
    for (const auto& members : sets) {
      decomposed_checks += static_cast<double>(1ULL << members.size());
    }
    std::printf("%-12zu %-12zu %-12zu %-18.0f %-18.0f\n", n, safe.size(), sets.size(),
                exhaustive_checks, decomposed_checks);
  }
  std::printf("expected: decomposed work grows linearly with cluster count, "
              "exhaustive work exponentially.\n\n");
}

void BM_EnumerateExhaustive(benchmark::State& state) {
  const Workload workload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::enumerate_safe_exhaustive(*workload.invariants));
  }
  state.counters["components"] = static_cast<double>(workload.registry.size());
}
BENCHMARK(BM_EnumerateExhaustive)->DenseRange(1, 4);

void BM_EnumeratePruned(benchmark::State& state) {
  const Workload workload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::enumerate_safe_pruned(*workload.invariants));
  }
  state.counters["components"] = static_cast<double>(workload.registry.size());
}
BENCHMARK(BM_EnumeratePruned)->DenseRange(1, 5);

void BM_EnumerateDecomposed(benchmark::State& state) {
  const Workload workload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::enumerate_safe_decomposed(*workload.invariants));
  }
  state.counters["components"] = static_cast<double>(workload.registry.size());
}
BENCHMARK(BM_EnumerateDecomposed)->DenseRange(1, 5);

void BM_CountDecomposedOnly(benchmark::State& state) {
  // Count without materializing the cartesian product — the planner only
  // needs the safe set reachable around source/target, so counting shows the
  // pure enumeration cost at scale (up to 10 clusters = 40 components).
  const Workload workload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::count_safe_decomposed(*workload.invariants));
  }
  state.counters["components"] = static_cast<double>(workload.registry.size());
}
BENCHMARK(BM_CountDecomposedOnly)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_SagConstructionScaling(benchmark::State& state) {
  // SAG over the safe set of k clusters with one swap action per cluster
  // (A->B together with C->D), labelled with unit cost.
  const std::size_t clusters = static_cast<std::size_t>(state.range(0));
  const Workload workload(clusters);
  actions::ActionTable table(workload.registry);
  for (std::size_t c = 0; c < clusters; ++c) {
    const std::string s = std::to_string(c);
    table.add("swap" + s, {"A" + s, "C" + s}, {"B" + s, "D" + s}, 10);
    table.add("back" + s, {"B" + s, "D" + s}, {"A" + s, "C" + s}, 10);
  }
  const auto safe = config::enumerate_safe_decomposed(*workload.invariants);
  for (auto _ : state) {
    actions::SafeAdaptationGraph sag(table, safe);
    benchmark::DoNotOptimize(sag.edge_count());
  }
  state.counters["nodes"] = static_cast<double>(safe.size());
}
BENCHMARK(BM_SagConstructionScaling)->DenseRange(1, 6);

namespace planning {

/// Action table with one forward/backward swap per cluster, reused by the
/// eager-vs-lazy planning comparison.
actions::ActionTable swap_table(const Workload& workload, std::size_t clusters) {
  actions::ActionTable table(workload.registry);
  for (std::size_t c = 0; c < clusters; ++c) {
    const std::string s = std::to_string(c);
    table.add("swap" + s, {"A" + s, "C" + s}, {"B" + s, "D" + s}, 10);
    table.add("back" + s, {"B" + s, "D" + s}, {"A" + s, "C" + s}, 10);
  }
  return table;
}

config::Configuration all_a_side(const Workload& workload, std::size_t clusters) {
  config::Configuration config;
  for (std::size_t c = 0; c < clusters; ++c) {
    const std::string s = std::to_string(c);
    config = config.with(workload.registry.require("A" + s))
                 .with(workload.registry.require("C" + s));
  }
  return config;
}

/// Target: flip ONE cluster only — the localized adaptation §7 motivates.
config::Configuration one_cluster_flipped(const Workload& workload,
                                          const config::Configuration& source) {
  return source.without(workload.registry.require("A0"))
      .without(workload.registry.require("C0"))
      .with(workload.registry.require("B0"))
      .with(workload.registry.require("D0"));
}

}  // namespace planning

void BM_EagerPlanFullSag(benchmark::State& state) {
  // Full §4.2 pipeline: enumerate, build the whole SAG, run Dijkstra.
  const std::size_t clusters = static_cast<std::size_t>(state.range(0));
  const Workload workload(clusters);
  const auto table = planning::swap_table(workload, clusters);
  const auto source = planning::all_a_side(workload, clusters);
  const auto target = planning::one_cluster_flipped(workload, source);
  for (auto _ : state) {
    const auto safe = config::enumerate_safe_pruned(*workload.invariants);
    const actions::SafeAdaptationGraph sag(table, safe);
    const actions::PathPlanner planner(sag);
    benchmark::DoNotOptimize(planner.minimum_path(source, target));
  }
  state.counters["safe_cfgs"] = static_cast<double>(1ULL << clusters);
}
BENCHMARK(BM_EagerPlanFullSag)->DenseRange(1, 8);

void BM_LazyPlanPartialExploration(benchmark::State& state) {
  // §7's proposal: A* over configurations, generating only the visited region.
  const std::size_t clusters = static_cast<std::size_t>(state.range(0));
  const Workload workload(clusters);
  const auto table = planning::swap_table(workload, clusters);
  const auto source = planning::all_a_side(workload, clusters);
  const auto target = planning::one_cluster_flipped(workload, source);
  const actions::LazyPathPlanner planner(table, *workload.invariants);
  std::size_t expanded = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.minimum_path(source, target));
    expanded = planner.last_stats().expanded;
  }
  state.counters["expanded"] = static_cast<double>(expanded);
}
BENCHMARK(BM_LazyPlanPartialExploration)->DenseRange(1, 8)->Arg(12);

}  // namespace

namespace {

/// Realization wall-clock (virtual time) for adapting k independent
/// 2-component clusters at once: a single manager executes 2k plan steps in
/// sequence; the §7 composite system runs one manager per cluster, and since
/// each cluster lives on its own process, all k single-step adaptations
/// overlap on the timeline.
void print_composite_realization() {
  std::printf("=== Collaborative-set sharding: realization time (Section 7) ===\n");
  std::printf("%-10s %-26s %-26s\n", "clusters", "single manager (ms)", "composite (ms)");
  // The composite column runs to 32 clusters — the full 64-bit Configuration
  // width (beyond that the fleet shards into regions; see bench_fleet). The
  // single manager realizes 2k steps sequentially, so it is capped at 8.
  for (std::size_t k = 1; k <= 32; k *= 2) {
    const auto build_components = [k](auto& system) {
      for (std::size_t c = 0; c < k; ++c) {
        const std::string s = std::to_string(c);
        system.registry().add("X" + s, static_cast<config::ProcessId>(c));
        system.registry().add("Y" + s, static_cast<config::ProcessId>(c));
      }
      for (std::size_t c = 0; c < k; ++c) {
        const std::string s = std::to_string(c);
        system.add_invariant("one" + s, "one(X" + s + ", Y" + s + ")");
        system.add_action("swap" + s, {"X" + s}, {"Y" + s}, 10);
      }
    };
    const auto endpoints = [k](const config::ComponentRegistry& registry) {
      config::Configuration source, target;
      for (std::size_t c = 0; c < k; ++c) {
        source = source.with(registry.require("X" + std::to_string(c)));
        target = target.with(registry.require("Y" + std::to_string(c)));
      }
      return std::make_pair(source, target);
    };

    double single_ms = 0;
    if (k <= 8) {
      core::SafeAdaptationSystem system;
      build_components(system);
      std::vector<std::unique_ptr<sa::proto::ObedientProcess>> processes;
      for (std::size_t c = 0; c < k; ++c) {
        processes.push_back(std::make_unique<sa::proto::ObedientProcess>());
        system.attach_process(static_cast<config::ProcessId>(c), *processes.back(), 0);
      }
      system.finalize();
      const auto [source, target] = endpoints(system.registry());
      system.set_current_configuration(source);
      const auto result = system.adapt_and_wait(target);
      single_ms = (result.finished - result.started) / 1000.0;
    }

    double composite_ms = 0;
    {
      core::CompositeAdaptationSystem system;
      build_components(system);
      std::vector<std::unique_ptr<sa::proto::ObedientProcess>> processes;
      for (std::size_t c = 0; c < k; ++c) {
        processes.push_back(std::make_unique<sa::proto::ObedientProcess>());
        system.attach_process(static_cast<config::ProcessId>(c), *processes.back(), 0);
      }
      system.finalize();
      const auto [source, target] = endpoints(system.registry());
      system.set_current_configuration(source);
      const auto result = system.adapt_and_wait(target);
      composite_ms = (result.finished - result.started) / 1000.0;
    }
    if (k <= 8) {
      std::printf("%-10zu %-26.2f %-26.2f\n", k, single_ms, composite_ms);
    } else {
      std::printf("%-10zu %-26s %-26.2f\n", k, "-", composite_ms);
    }
  }
  std::printf("expected: the single manager's realization grows linearly with the cluster "
              "count; the composite stays flat (disjoint lanes adapt concurrently under "
              "the coordinator tree).\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  sa::util::set_log_level(sa::util::LogLevel::Off);
  print_scaling_table();
  print_composite_realization();
  return sa::benchio::run_and_report(argc, argv, "scalability");
}
