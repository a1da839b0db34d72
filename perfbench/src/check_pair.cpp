// check_pair: the model checker. The exhaustive search of the pair scenario
// (DPOR sleep sets + symmetry reduction, depth unbounded, 2 worker threads),
// as `sa_check --scenario pair --dpor --symmetry --depth 0 --threads 2` runs
// it. Op: one explored edge. The search has no random input: it covers every
// schedule, so its result is the same for every seed.
#include <map>
#include <random>

#include "check/explorer.hpp"
#include "check/scenario.hpp"
#include "util/fingerprint_set.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr std::size_t kEdges = 10'321'894;
constexpr std::size_t kRuns = 201;
const std::map<std::string, std::size_t> kOutcomes{{"rolled-back-to-source", 63},
                                                   {"stalled-after-resume", 9},
                                                   {"success", 33},
                                                   {"user-intervention-required", 96}};

sa::check::ExploreOptions pair_options() {
  sa::check::ExploreOptions options;
  options.max_depth = 0;
  options.max_states = 20'000'000;
  options.dpor = true;
  options.symmetry = true;
  options.threads = 2;
  return options;
}

/// Model copy + apply + fingerprint, and the canonical fingerprint, on
/// states of the pair scenario reached by seeded random walks.
void probe_model(std::uint64_t seed, Report& report) {
  const sa::check::Scenario scenario = sa::check::make_pair_scenario();
  const sa::check::ExploreOptions options = pair_options();
  std::mt19937_64 rng(seed);
  sa::check::Model model = sa::check::make_model(scenario, options);
  std::vector<sa::check::Choice> choices;
  std::vector<double> fork_ns, canonical_ns;
  std::uint64_t sink = 0;
  while (fork_ns.size() < 20000) {
    model.choices(choices);
    if (choices.empty()) {
      model = sa::check::make_model(scenario, options);
      continue;
    }
    const sa::check::Choice& choice = choices[rng() % choices.size()];
    const auto t0 = Clock::now();
    sa::check::Model child = model;
    child.apply(choice);
    sink ^= child.fingerprint();
    const auto t1 = Clock::now();
    sink ^= child.canonical_fingerprint();
    const auto t2 = Clock::now();
    fork_ns.push_back(us_between(t0, t1) * 1000);
    canonical_ns.push_back(us_between(t1, t2) * 1000);
    model = std::move(child);
  }
  report.notes.push_back("check_pair: model probe digest " + std::to_string(sink));
  report.layers.push_back({"check.model_fork_ns", median(fork_ns), "ns"});
  report.layers.push_back({"check.canonical_fingerprint_ns", median(canonical_ns), "ns"});
}

/// FingerprintSet::insert while filling a set to the search's final number
/// of distinct states.
void probe_visited(std::uint64_t seed, std::size_t states, Report& report) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> values(states);
  for (auto& v : values) v = rng();
  sa::util::FingerprintSet set(states);
  const auto t0 = Clock::now();
  std::size_t fresh = 0;
  for (const std::uint64_t v : values) fresh += set.insert(v) ? 1 : 0;
  const double ns = us_between(t0, Clock::now()) * 1000;
  report.check(fresh == set.size(), "check_pair: fingerprint set lost a value");
  report.layers.push_back({"util.visited_insert_ns", ns / static_cast<double>(states), "ns"});
}

}  // namespace

Report run_check_pair(const RunConfig& cfg) {
  Report report;

  // Set-up: the scenario, the initial model, and the visited-state table the
  // engine reserves before its first expansion (same constructor arguments).
  std::vector<double> setups;
  for (int i = 0; i < cfg.setups; ++i) {
    const sa::check::ExploreOptions options = pair_options();
    const auto t0 = Clock::now();
    const sa::check::Scenario scenario = sa::check::make_pair_scenario();
    const sa::check::Model model = sa::check::make_model(scenario, options);
    const sa::util::ShardedFingerprintSet visited(options.max_states,
                                                  static_cast<std::size_t>(options.threads) * 2);
    setups.push_back(s_between(t0, Clock::now()));
    report.check(!model.choices().empty() && visited.size() == 0,
                 "check_pair: the initial model has no enabled choice");
  }

  // One exhaustive search per run: it takes longer than the timed phase.
  const auto t0 = Clock::now();
  const sa::check::ExploreResult result =
      sa::check::explore_dfs(sa::check::make_pair_scenario(), pair_options());
  const double searching = s_between(t0, Clock::now());
  const std::size_t edges = result.stats.states_explored;
  const bool ok = result.complete && !result.counterexample && edges == kEdges &&
                  result.stats.runs_completed == kRuns && result.stats.outcomes == kOutcomes;
  report.attempted = edges;
  report.failed = ok ? 0 : edges;
  report.check(ok, "check_pair: search not exhaustive and clean with 10,321,894 edges, "
                   "201 runs, outcomes 63/9/33/96");

  const double verdict_us = searching * 1e6;
  report.notes.push_back(
      "check_pair: 1 exhaustive search; latency and blocked are its verdict wait");
  report.end_to_end = {
      {"setup_s", median(setups), "s"},
      {"ops_per_s", static_cast<double>(edges) / searching, "1/s"},
      {"latency_p50_us", verdict_us, "us"},
      {"blocked_p50_us", verdict_us, "us"},
      {"peak_rss_mb", peak_rss_mb_with({}), "MB"},
  };

  if (cfg.traced) {
    const auto count = [](std::size_t n) { return static_cast<double>(n); };
    report.layers.push_back({"check.ns_per_edge", searching * 1e9 / count(edges), "ns"});
    report.layers.push_back({"check.edges", count(result.stats.states_explored), "count"});
    report.layers.push_back({"check.runs", count(result.stats.runs_completed), "count"});
    probe_model(cfg.seed, report);
    probe_visited(cfg.seed, edges - result.stats.states_deduped, report);
  }
  return report;
}

}  // namespace pb
