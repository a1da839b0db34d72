// Throughput benchmarks for the model-checking engine (src/check/engine.hpp).
//
// Five groups:
//
//   * CheckSeedStyleDfs — a faithful re-implementation of the original
//     recursive explorer (per-node std::vector<Choice> allocation, full Model
//     copy per child plus a second full copy per leaf, std::unordered_set
//     dedup, transition recording left on). This is the live baseline the
//     engine's speedup is computed against.
//   * CheckEngineDfs/<t> — the frontier engine on the same exhaustive tiny
//     search at t worker threads. Counters: states_per_sec and
//     speedup_vs_seed_style (baseline wall-clock / engine wall-clock, both
//     measured in-process in the same build).
//   * CheckModelFork — microbenchmark of the hot-path fork (copy + apply) at
//     a mid-search state, with transition recording on (seed default) and
//     off (engine setting), isolating the per-edge cost the engine pays.
//   * CheckReductionSweep/<scenario>/<dpor>/<symmetry> — the state-space
//     reductions (sleep-set DPOR, symmetry canonicalization) separately and
//     combined, on the exhaustive tiny search and a bounded pair search.
//     Counters: edges (choice applications), states_explored (distinct
//     states retained after dedup), reduction_ratio (unreduced edges at the
//     same bound / this row's edges), wall_seconds.
//   * CheckEdgePhases/<t> — the cost of one explored edge of the exhaustive
//     pair search (DPOR + symmetry) at t workers, split by layer: model copy,
//     Model::apply, canonical fingerprint, visited-set insert, and the rest
//     of the engine. Counters in ns per edge (thread time: wall time x t /
//     edges) plus allocations per edge.
//
// The exhaustive tiny search visits ~286k distinct states / ~723k edges, so
// one iteration is meaningful; Google Benchmark picks the repetition count. EXPERIMENTS.md additionally records the end-to-end
// speedup against the pre-optimization seed binary, which this bench cannot
// reproduce (the Model itself was reworked in the same change).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include "alloc_counter.hpp"
#include "check/engine.hpp"
#include "check/explorer.hpp"
#include "check/model.hpp"
#include "check/scenario.hpp"
#include "util/fingerprint_set.hpp"
#include "util/rng.hpp"

namespace {

using namespace sa;

check::ExploreOptions tiny_exhaustive_options() {
  check::ExploreOptions options;
  options.max_depth = 100;
  options.max_states = 1'000'000;
  return options;
}

// ---------------------------------------------------------------------------
// Seed-style reference explorer: the exact algorithm shipped before the
// engine existed. Kept here (not in src/) so the production tree has one
// search implementation; the bench needs it live to measure speedup on the
// machine it runs on.

struct SeedDfsContext {
  const check::ExploreOptions* options = nullptr;
  std::unordered_set<std::uint64_t> visited;
  std::size_t states_explored = 0;
  std::size_t states_deduped = 0;
  std::size_t runs_completed = 0;
  bool stop = false;
};

void seed_style_record_leaf(const check::Model& model, SeedDfsContext& ctx) {
  check::Model leaf = model;  // the seed finalized a second full copy
  leaf.finalize();
  if (!leaf.violations().empty()) {
    ctx.stop = true;
    return;
  }
  ++ctx.runs_completed;
}

void seed_style_dfs(const check::Model& model, int depth, SeedDfsContext& ctx) {
  const std::vector<check::Choice> choices = model.choices();
  if (choices.empty()) {
    seed_style_record_leaf(model, ctx);
    return;
  }
  if (depth >= ctx.options->max_depth) return;
  for (const check::Choice& choice : choices) {
    check::Model next = model;
    next.apply(choice);
    ++ctx.states_explored;
    if (!next.violations().empty()) {
      ctx.stop = true;
      return;
    }
    if (!ctx.visited.insert(next.fingerprint()).second) {
      ++ctx.states_deduped;
      continue;
    }
    if (ctx.visited.size() >= ctx.options->max_states) {
      ctx.stop = true;
      return;
    }
    seed_style_dfs(next, depth + 1, ctx);
    if (ctx.stop) return;
  }
}

SeedDfsContext run_seed_style(const check::Scenario& scenario,
                              const check::ExploreOptions& options) {
  SeedDfsContext ctx;
  ctx.options = &options;
  const check::Model root = check::make_model(scenario, options);
  ctx.visited.insert(root.fingerprint());
  seed_style_dfs(root, 0, ctx);
  return ctx;
}

/// Baseline wall-clock, measured once and reused for every engine speedup
/// counter so all entries in one report divide by the same number.
double seed_style_baseline_seconds() {
  static const double seconds = [] {
    const check::Scenario scenario = check::make_scenario("tiny");
    const check::ExploreOptions options = tiny_exhaustive_options();
    const auto start = std::chrono::steady_clock::now();
    const SeedDfsContext ctx = run_seed_style(scenario, options);
    const auto stop = std::chrono::steady_clock::now();
    if (ctx.stop) throw std::runtime_error("seed-style baseline hit a budget");
    return std::chrono::duration<double>(stop - start).count();
  }();
  return seconds;
}

void BM_CheckSeedStyleDfs(benchmark::State& state) {
  const check::Scenario scenario = check::make_scenario("tiny");
  const check::ExploreOptions options = tiny_exhaustive_options();
  std::size_t explored = 0;
  for (auto _ : state) {
    const SeedDfsContext ctx = run_seed_style(scenario, options);
    explored = ctx.states_explored;
    benchmark::DoNotOptimize(ctx.runs_completed);
  }
  state.counters["states_explored"] = static_cast<double>(explored);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(explored * state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CheckSeedStyleDfs)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Engine thread sweep.

void BM_CheckEngineDfs(benchmark::State& state) {
  const check::Scenario scenario = check::make_scenario("tiny");
  check::ExploreOptions options = tiny_exhaustive_options();
  options.threads = static_cast<int>(state.range(0));
  const double baseline = seed_style_baseline_seconds();
  std::size_t explored = 0;
  double total_seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const check::ExploreResult result = check::explore_dfs(scenario, options);
    const auto stop = std::chrono::steady_clock::now();
    total_seconds += std::chrono::duration<double>(stop - start).count();
    if (!result.complete) state.SkipWithError("engine search hit a budget");
    explored = result.stats.states_explored;
    benchmark::DoNotOptimize(result.stats.runs_completed);
  }
  const double mean_seconds =
      total_seconds / static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
  state.counters["states_explored"] = static_cast<double>(explored);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(explored * state.iterations()), benchmark::Counter::kIsRate);
  state.counters["speedup_vs_seed_style"] =
      mean_seconds > 0.0 ? baseline / mean_seconds : 0.0;
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

// ---------------------------------------------------------------------------
// Per-phase cost of one edge of the exhaustive pair search.
//
// The search gives the total: thread time per edge (wall time x workers /
// edges) of explore_dfs at t workers, and, from a second untimed run with
// the counting allocator on, allocations per edge. The phases are timed on
// edges of seeded random walks over the same scenario, every worker timing
// its own share concurrently. A worker draws a batch of edges (untimed),
// then times each phase as one loop over the batch; batches are small, so
// parent and fork stay in cache as they do in the engine, and each parent's
// fingerprint caches are warm, as after the engine's dedup insert:
//
//   copy       copy-assign the parent into a recycled model (the engine's fork)
//   apply      Model::apply of the edge's choice
//   canonical  Model::canonical_fingerprint of the child, and the prefetch
//              of its home slot, as the engine keys a frame's children
//   insert     ShardedFingerprintSet::insert of that fingerprint into a set
//              shaped like the engine's and pre-filled to the search's
//              distinct-state count
//
// engine_rest is the total minus those four, so the parts sum to the total:
// choice enumeration, DPOR footprints and sleep sets, frames, schedule
// nodes, the work-stealing deques, and whatever the random-walk edges cost
// differently from the search's own.

check::ExploreOptions pair_exhaustive_options(int threads) {
  check::ExploreOptions options;
  options.max_depth = 0;
  options.max_states = 20'000'000;
  options.dpor = true;
  options.symmetry = true;
  options.threads = threads;
  return options;
}

struct PhaseNs {
  double copy = 0;
  double apply = 0;
  double canonical = 0;
  double insert = 0;
};

/// One worker's share: kRounds batches of kBatch random-walk edges.
PhaseNs time_phases(const check::Scenario& scenario, std::uint64_t seed,
                    util::ShardedFingerprintSet& visited) {
  constexpr int kRounds = 2048;
  constexpr std::size_t kBatch = 16;
  const check::ExploreOptions options = pair_exhaustive_options(1);
  const check::Model initial = [&] {
    check::Model model = check::make_model(scenario, options);
    model.set_record_transitions(false);
    return model;
  }();
  check::Model walker = initial;
  std::vector<check::Model> parents(kBatch, initial);
  std::vector<check::Model> children(kBatch, initial);  // the recycled fork targets
  std::vector<check::Choice> taken(kBatch);
  std::vector<std::uint64_t> keys(kBatch);
  std::vector<check::Choice> choices;
  util::Rng rng(seed);
  using Clock = std::chrono::steady_clock;
  const auto ns = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
  };
  PhaseNs total;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      for (walker.choices(choices); choices.empty(); walker.choices(choices)) walker = initial;
      taken[i] = choices[rng.next_below(choices.size())];
      benchmark::DoNotOptimize(walker.canonical_fingerprint());
      parents[i] = walker;
      walker.apply(taken[i]);
    }
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) children[i] = parents[i];
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) children[i].apply(taken[i]);
    const auto t2 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      keys[i] = children[i].canonical_fingerprint();
      visited.prefetch(keys[i]);
    }
    const auto t3 = Clock::now();
    std::size_t fresh = 0;
    for (std::size_t i = 0; i < kBatch; ++i) fresh += visited.insert(keys[i]) ? 1 : 0;
    const auto t4 = Clock::now();
    benchmark::DoNotOptimize(fresh);
    benchmark::DoNotOptimize(children.data());
    total.copy += ns(t0, t1);
    total.apply += ns(t1, t2);
    total.canonical += ns(t2, t3);
    total.insert += ns(t3, t4);
  }
  const double ops = static_cast<double>(kBatch) * kRounds;
  return {total.copy / ops, total.apply / ops, total.canonical / ops, total.insert / ops};
}

void BM_CheckEdgePhases(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const check::Scenario scenario = check::make_pair_scenario();
  const check::ExploreOptions options = pair_exhaustive_options(threads);
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const check::ExploreResult result = check::explore_dfs(scenario, options);
    const double wall_ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
            .count();
    if (!result.complete || result.counterexample) {
      state.SkipWithError("pair search not exhaustive and clean");
      return;
    }
    const std::size_t edges = result.stats.states_explored;
    const std::size_t distinct = edges - result.stats.states_deduped + 1;

    std::size_t allocations = 0;
    {
      const testing::AllocationScope scope;
      benchmark::DoNotOptimize(check::explore_dfs(scenario, options).stats.states_explored);
      allocations = scope.count();
    }

    util::ShardedFingerprintSet visited(options.max_states, check::kVisitedShards);
    util::Rng fill(3);
    for (std::size_t i = 1; i < distinct; ++i) visited.insert(fill.next_u64());
    std::vector<PhaseNs> shares(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        shares[static_cast<std::size_t>(t)] =
            time_phases(scenario, 101 + static_cast<std::uint64_t>(t), visited);
      });
    }
    for (std::thread& th : pool) th.join();
    PhaseNs phases;
    for (const PhaseNs& share : shares) {
      phases.copy += share.copy / threads;
      phases.apply += share.apply / threads;
      phases.canonical += share.canonical / threads;
      phases.insert += share.insert / threads;
    }

    const double total = wall_ns * threads / static_cast<double>(edges);
    state.counters["edges"] = static_cast<double>(edges);
    state.counters["total_ns_per_edge"] = total;
    state.counters["copy_ns_per_edge"] = phases.copy;
    state.counters["apply_ns_per_edge"] = phases.apply;
    state.counters["canonical_fp_ns_per_edge"] = phases.canonical;
    state.counters["insert_ns_per_edge"] = phases.insert;
    state.counters["engine_rest_ns_per_edge"] =
        total - phases.copy - phases.apply - phases.canonical - phases.insert;
    state.counters["visited_peak_mib"] =
        static_cast<double>(result.stats.visited_peak_bytes) / (1024.0 * 1024.0);
    state.counters["allocations_per_edge"] =
        static_cast<double>(allocations) / static_cast<double>(edges);
  }
}
BENCHMARK(BM_CheckEdgePhases)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kSecond);

}  // namespace

int main(int argc, char** argv) {
  return sa::benchio::run_and_report(argc, argv, "check");
}
