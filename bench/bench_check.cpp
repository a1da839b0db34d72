// Throughput benchmarks for the model-checking engine (src/check/engine.hpp).
//
// Three groups:
//
//   * CheckEngineDfs/<t> — the frontier engine on the exhaustive tiny search
//     at t worker threads. Counter: states_per_sec.
//   * CheckModelFork — microbenchmark of the hot-path fork (copy + apply) at
//     a mid-search state, with transition recording on (seed default) and
//     off (engine setting), isolating the per-edge cost the engine pays.
//   * CheckReductionSweep/<scenario>/<dpor>/<symmetry> — the state-space
//     reductions (sleep-set DPOR, symmetry canonicalization) separately and
//     combined, on the exhaustive tiny search and a bounded pair search.
//     Counters: edges (choice applications), states_explored (distinct
//     states retained after dedup), reduction_ratio (unreduced edges at the
//     same bound / this row's edges), wall_seconds.
//
// The exhaustive tiny search visits ~286k distinct states / ~723k edges, so
// one iteration is meaningful; Google Benchmark picks the repetition count.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "check/engine.hpp"
#include "check/explorer.hpp"
#include "check/model.hpp"
#include "check/scenario.hpp"

namespace {

using namespace sa;

check::ExploreOptions tiny_exhaustive_options() {
  check::ExploreOptions options;
  options.max_depth = 100;
  options.max_states = 1'000'000;
  return options;
}

// ---------------------------------------------------------------------------
// Engine thread sweep.

void BM_CheckEngineDfs(benchmark::State& state) {
  const check::Scenario scenario = check::make_scenario("tiny");
  check::ExploreOptions options = tiny_exhaustive_options();
  options.threads = static_cast<int>(state.range(0));
  std::size_t explored = 0;
  for (auto _ : state) {
    const check::ExploreResult result = check::explore_dfs(scenario, options);
    if (!result.complete) state.SkipWithError("engine search hit a budget");
    explored = result.stats.states_explored;
    benchmark::DoNotOptimize(result.stats.runs_completed);
  }
  state.counters["states_explored"] = static_cast<double>(explored);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(explored * state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CheckEngineDfs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    // Workers run outside the main thread, so per-second counters must use
    // wall-clock, not main-thread CPU time.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Fork microbenchmark: cost of one copy + apply at a representative state a
// few steps into the tiny scenario.

/// The model keeps pointers into `scenario`, which must outlive it.
check::Model mid_search_state(const check::Scenario& scenario, bool record_transitions) {
  check::ExploreOptions options = tiny_exhaustive_options();
  check::Model model = check::make_model(scenario, options);
  model.set_record_transitions(record_transitions);
  for (int i = 0; i < 6; ++i) {
    const std::vector<check::Choice> choices = model.choices();
    if (choices.empty()) break;
    model.apply(choices.front());
  }
  return model;
}

void BM_CheckModelFork(benchmark::State& state) {
  const bool record = state.range(0) != 0;
  const check::Scenario scenario = check::make_scenario("tiny");
  const check::Model parent = mid_search_state(scenario, record);
  const std::vector<check::Choice> choices = parent.choices();
  if (choices.empty()) {
    state.SkipWithError("mid-search state is quiescent");
    return;
  }
  for (auto _ : state) {
    check::Model child = parent;
    child.apply(choices.front());
    benchmark::DoNotOptimize(child.fingerprint());
  }
  state.counters["forks_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CheckModelFork)
    ->Arg(1)  // transition recording on: the seed explorer's setting
    ->Arg(0)  // transition recording off: the engine's setting
    ->Unit(benchmark::kNanosecond);

// ---------------------------------------------------------------------------
// Reduction sweep: DPOR sleep sets and symmetry canonicalization, separately
// and combined. Tiny runs exhaustively; pair runs at a bounded depth because
// the unreduced pair search does not terminate in bench-budget time (the
// reduced searches do — see EXPERIMENTS.md for the unbounded numbers).

struct SweepConfig {
  const char* scenario;
  int max_depth;
};

constexpr SweepConfig kSweepConfigs[] = {
    {"tiny", 100},
    {"pair", 18},
};

check::ExploreOptions sweep_options(const SweepConfig& config, bool dpor, bool symmetry) {
  check::ExploreOptions options;
  options.max_depth = config.max_depth;
  options.max_states = 60'000'000;
  options.threads = 0;  // all cores; the counters are thread-count independent
  options.dpor = dpor;
  options.symmetry = symmetry;
  return options;
}

double& sweep_baseline_slot(std::size_t config_index) {
  static double cache[std::size(kSweepConfigs)] = {};
  return cache[config_index];
}

/// Unreduced edge count per scenario at the sweep bound, shared by every row
/// so all reduction_ratio entries in one report divide by the same number.
/// The off row stores its own measurement here; this only runs a search when
/// a --benchmark_filter skipped that row.
double sweep_baseline_edges(std::size_t config_index) {
  double& slot = sweep_baseline_slot(config_index);
  if (slot == 0.0) {
    const SweepConfig& config = kSweepConfigs[config_index];
    const check::ExploreResult result = check::explore_dfs(
        check::make_scenario(config.scenario), sweep_options(config, false, false));
    slot = static_cast<double>(result.stats.states_explored);
  }
  return slot;
}

void BM_CheckReductionSweep(benchmark::State& state) {
  const auto config_index = static_cast<std::size_t>(state.range(0));
  const SweepConfig& config = kSweepConfigs[config_index];
  const bool dpor = state.range(1) != 0;
  const bool symmetry = state.range(2) != 0;
  const check::Scenario scenario = check::make_scenario(config.scenario);
  const check::ExploreOptions options = sweep_options(config, dpor, symmetry);
  check::ExploreStats stats;
  double total_seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const check::ExploreResult result = check::explore_dfs(scenario, options);
    const auto stop = std::chrono::steady_clock::now();
    total_seconds += std::chrono::duration<double>(stop - start).count();
    if (result.counterexample) state.SkipWithError("reduction sweep found a violation");
    stats = result.stats;
  }
  const double edges = static_cast<double>(stats.states_explored);
  if (!dpor && !symmetry && sweep_baseline_slot(config_index) == 0.0) {
    sweep_baseline_slot(config_index) = edges;
  }
  const double mean_seconds =
      total_seconds / static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
  state.counters["edges"] = edges;
  state.counters["states_explored"] =
      static_cast<double>(stats.states_explored - stats.states_deduped);
  state.counters["sleep_pruned"] = static_cast<double>(stats.sleep_pruned);
  state.counters["runs_completed"] = static_cast<double>(stats.runs_completed);
  state.counters["reduction_ratio"] =
      edges > 0.0 ? sweep_baseline_edges(config_index) / edges : 0.0;
  state.counters["wall_seconds"] = mean_seconds;
}
BENCHMARK(BM_CheckReductionSweep)
    ->ArgNames({"scenario", "dpor", "symmetry"})
    // tiny: off, dpor, symmetry, both
    ->Args({0, 0, 0})
    ->Args({0, 1, 0})
    ->Args({0, 0, 1})
    ->Args({0, 1, 1})
    // pair: off, dpor, symmetry, both
    ->Args({1, 0, 0})
    ->Args({1, 1, 0})
    ->Args({1, 0, 1})
    ->Args({1, 1, 1})
    // The searches are deterministic; one iteration per row keeps the
    // unreduced pair run (the slowest row by far) from repeating.
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return sa::benchio::run_and_report(argc, argv, "check");
}
