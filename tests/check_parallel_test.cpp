// Parallel search engine (src/check/engine.hpp): the verdict and the
// dedup-invariant statistics must not depend on the worker-thread count.
//
// On a search that completes within its budgets every reachable state is
// expanded exactly once no matter how frames are interleaved across workers,
// so states_explored (edges), states_deduped, runs_completed, and the outcome
// histogram are invariants, and so are the edges by choice kind; these tests
// pin them across --threads 1, 2, and 8.
// max_depth_reached is deliberately NOT compared: which path reaches a shared
// state first is schedule-dependent, so the depth at which the dedup cut
// happens varies across thread counts.
//
// Test names contain "Parallel" so the CI ThreadSanitizer job picks them up.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "check/explorer.hpp"
#include "check/model.hpp"
#include "check/scenario.hpp"

namespace sa::check {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

ExploreResult run_with_threads(const Scenario& scenario, ExploreOptions options,
                               int threads) {
  options.threads = threads;
  return explore_dfs(scenario, options);
}

void expect_same_invariants(const ExploreResult& reference, const ExploreResult& result,
                            int threads) {
  EXPECT_EQ(result.complete, reference.complete) << "threads=" << threads;
  EXPECT_EQ(result.counterexample.has_value(), reference.counterexample.has_value())
      << "threads=" << threads;
  EXPECT_EQ(result.stats.states_explored, reference.stats.states_explored)
      << "threads=" << threads;
  EXPECT_EQ(result.stats.states_deduped, reference.stats.states_deduped)
      << "threads=" << threads;
  EXPECT_EQ(result.stats.runs_completed, reference.stats.runs_completed)
      << "threads=" << threads;
  EXPECT_EQ(result.stats.depth_capped, reference.stats.depth_capped)
      << "threads=" << threads;
  EXPECT_EQ(result.stats.outcomes, reference.stats.outcomes) << "threads=" << threads;
  EXPECT_EQ(result.stats.edges_by_kind, reference.stats.edges_by_kind)
      << "threads=" << threads;
}

TEST(ParallelExplorer, TinyExhaustiveStatsInvariantAcrossThreadCounts) {
  const Scenario scenario = make_tiny_scenario();
  ExploreOptions options;
  options.max_depth = 300;
  options.max_states = 2'000'000;
  const ExploreResult reference = run_with_threads(scenario, options, 1);
  ASSERT_TRUE(reference.complete);
  ASSERT_FALSE(reference.counterexample.has_value());
  ASSERT_GT(reference.stats.runs_completed, 0U);
  for (const int threads : kThreadCounts) {
    expect_same_invariants(reference, run_with_threads(scenario, options, threads),
                           threads);
  }
}

TEST(ParallelExplorer, TinyWithDropBudgetStatsInvariantAcrossThreadCounts) {
  const Scenario scenario = make_tiny_scenario();
  ExploreOptions options;
  options.max_depth = 300;
  options.max_states = 3'000'000;
  options.drop_budget = 1;
  const ExploreResult reference = run_with_threads(scenario, options, 1);
  ASSERT_TRUE(reference.complete);
  ASSERT_FALSE(reference.counterexample.has_value());
  for (const int threads : kThreadCounts) {
    expect_same_invariants(reference, run_with_threads(scenario, options, threads),
                           threads);
  }
}

TEST(ParallelExplorer, RandomWalksBitIdenticalAcrossThreadCounts) {
  // explore_random dispenses run indices to workers but derives each walk's
  // RNG from (seed, run) and merges per-run deltas in run order, so the whole
  // result — not just the invariants — must match the sequential engine.
  const Scenario scenario = make_pair_scenario();
  ExploreOptions options;
  options.drop_budget = 1;
  options.dup_budget = 1;
  const ExploreResult reference = explore_random(scenario, options, /*seed=*/23,
                                                 /*runs=*/200);
  for (const int threads : kThreadCounts) {
    options.threads = threads;
    const ExploreResult result = explore_random(scenario, options, /*seed=*/23,
                                                /*runs=*/200);
    expect_same_invariants(reference, result, threads);
    EXPECT_EQ(result.stats.max_depth_reached, reference.stats.max_depth_reached)
        << "threads=" << threads;
  }
}

// --- mutations must still be caught in parallel mode -------------------------

TEST(ParallelExplorer, ResumeBeforeLastAdaptDoneCaughtAtEveryThreadCount) {
  const Scenario scenario = make_pair_scenario();
  ExploreOptions options;
  options.max_depth = 40;
  options.fault = proto::ManagerFault::ResumeBeforeLastAdaptDone;
  for (const int threads : kThreadCounts) {
    const ExploreResult result = run_with_threads(scenario, options, threads);
    ASSERT_TRUE(result.counterexample.has_value()) << "threads=" << threads;
    ASSERT_FALSE(result.counterexample->violations.empty()) << "threads=" << threads;
    EXPECT_NE(result.counterexample->violations.front().find("§4.3"), std::string::npos)
        << "threads=" << threads;
    // Whatever schedule won the race must replay to the same violation.
    options.threads = threads;
    const ReplayResult replayed =
        replay(scenario, options, result.counterexample->schedule);
    EXPECT_TRUE(replayed.schedule_valid) << "threads=" << threads;
    ASSERT_FALSE(replayed.violations.empty()) << "threads=" << threads;
    EXPECT_EQ(replayed.violations.front().description,
              result.counterexample->violations.front())
        << "threads=" << threads;
  }
}

TEST(ParallelExplorer, RollbackAfterResumeCaughtAtEveryThreadCount) {
  Scenario scenario = make_tiny_scenario();
  scenario.manager_config.message_retries = 0;
  scenario.manager_config.run_to_completion_retries = 0;
  ExploreOptions options;
  options.max_depth = 60;
  options.max_states = 500'000;
  options.drop_budget = 1;
  options.fault = proto::ManagerFault::RollbackAfterResume;
  for (const int threads : kThreadCounts) {
    const ExploreResult result = run_with_threads(scenario, options, threads);
    ASSERT_TRUE(result.counterexample.has_value()) << "threads=" << threads;
    ASSERT_FALSE(result.counterexample->violations.empty()) << "threads=" << threads;
    EXPECT_NE(result.counterexample->violations.front().find("§4.4"), std::string::npos)
        << "threads=" << threads;
    options.threads = threads;
    const ReplayResult replayed =
        replay(scenario, options, result.counterexample->schedule);
    EXPECT_TRUE(replayed.schedule_valid) << "threads=" << threads;
    ASSERT_FALSE(replayed.violations.empty()) << "threads=" << threads;
  }
}

// A depth bound that cuts the search must not make the verdict depend on the
// thread count. The plain pair search reaches the rollback-after-resume
// violation only on the 40th choice of its schedule, so at depth 40 a state
// first reached deep in one branch and then with more depth left in another
// must be expanded again, whichever worker reached it first.
TEST(ParallelExplorer, CuttingDepthBoundGivesOneVerdictAtEveryThreadCount) {
  const Scenario scenario = make_pair_scenario();
  ExploreOptions options;
  options.max_depth = 40;
  options.max_states = 2'000'000;
  options.fault = proto::ManagerFault::RollbackAfterResume;
  for (const int threads : {1, 2, 4, 8}) {
    const ExploreResult result = run_with_threads(scenario, options, threads);
    ASSERT_TRUE(result.counterexample.has_value()) << "threads=" << threads;
    ASSERT_FALSE(result.counterexample->violations.empty()) << "threads=" << threads;
    EXPECT_NE(result.counterexample->violations.front().find("§4.4"), std::string::npos)
        << "threads=" << threads;
    EXPECT_LE(result.counterexample->schedule.size(), 40U) << "threads=" << threads;
    EXPECT_GT(result.stats.depth_capped, 0U) << "threads=" << threads;
  }
}

TEST(ParallelExplorer, SequentialCounterexampleIsDeterministic) {
  // threads == 1 uses the lock-free sequential path: two runs must produce
  // the exact same counterexample schedule, and it must be minimal-or-equal
  // under the engine's canonical order versus any parallel winner.
  const Scenario scenario = make_pair_scenario();
  ExploreOptions options;
  options.max_depth = 40;
  options.fault = proto::ManagerFault::ResumeBeforeLastAdaptDone;
  const ExploreResult first = run_with_threads(scenario, options, 1);
  const ExploreResult second = run_with_threads(scenario, options, 1);
  ASSERT_TRUE(first.counterexample.has_value());
  ASSERT_TRUE(second.counterexample.has_value());
  ASSERT_EQ(first.counterexample->schedule.size(), second.counterexample->schedule.size());
  EXPECT_EQ(first.counterexample->schedule, second.counterexample->schedule);
  EXPECT_EQ(first.counterexample->violations, second.counterexample->violations);
}

// --- termination count -------------------------------------------------------

/// Runs `search` on its own thread and aborts the binary if it has not
/// returned within five minutes: a termination-count bug shows as a hang
/// (or an early exit, which the counters catch), not as a wrong verdict.
ExploreResult within_deadline(const std::function<ExploreResult()>& search) {
  std::packaged_task<ExploreResult()> task(search);
  std::future<ExploreResult> done = task.get_future();
  std::thread runner(std::move(task));
  if (done.wait_for(std::chrono::minutes(5)) != std::future_status::ready) {
    std::fprintf(stderr, "explore_dfs did not terminate within five minutes\n");
    std::abort();
  }
  runner.join();
  return done.get();
}

TEST(ParallelExplorer, EightWorkersRepeatedlyDrainToTheOneThreadCounters) {
  // Eight workers on few cores share and steal often, and each search ends
  // with most of them idle: every run must end, and only once its last frame
  // is expanded. The pair search's depth bound lies above its deepest state:
  // a bound that cuts would make the counters depend on which worker reached
  // a state first.
  struct Case {
    Scenario scenario;
    ExploreOptions options;
  };
  std::vector<Case> cases;
  ExploreOptions tiny;
  tiny.max_depth = 300;
  tiny.max_states = 2'000'000;
  cases.push_back({make_tiny_scenario(), tiny});
  ExploreOptions pair;
  pair.max_depth = 200;
  pair.max_states = 2'000'000;
  pair.dpor = true;
  pair.symmetry = true;
  pair.fail_to_reset = {1};
  cases.push_back({make_pair_scenario(), pair});
  for (const Case& c : cases) {
    const ExploreResult reference = run_with_threads(c.scenario, c.options, 1);
    ASSERT_TRUE(reference.complete);
    ASSERT_EQ(reference.stats.depth_capped, 0U);
    for (int repeat = 0; repeat < 5; ++repeat) {
      const ExploreResult result =
          within_deadline([&] { return run_with_threads(c.scenario, c.options, 8); });
      expect_same_invariants(reference, result, 8);
      EXPECT_EQ(result.stats.sleep_pruned, reference.stats.sleep_pruned);
    }
  }
}

TEST(ParallelExplorer, ZeroThreadsMeansHardwareConcurrency) {
  // --threads 0 must run (one worker per hardware thread) and agree with the
  // sequential invariants.
  const Scenario scenario = make_tiny_scenario();
  ExploreOptions options;
  options.max_depth = 300;
  options.max_states = 2'000'000;
  const ExploreResult reference = run_with_threads(scenario, options, 1);
  expect_same_invariants(reference, run_with_threads(scenario, options, 0), 0);
}

}  // namespace
}  // namespace sa::check
