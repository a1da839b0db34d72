// Golden statistics for the search engine (src/check/engine.hpp).
//
// check_parallel_test compares thread counts against each other; this suite
// pins absolute numbers, so a change to the engine, the Model or the protocol
// cores that explores a different set of edges fails here even when it does
// so identically at every thread count.
//
// Exhaustive searches are thread-count invariant (see engine.hpp), so every
// counter except max_depth_reached is pinned at --threads 1, 2 and 8. The
// depth- and state-capped searches are deterministic only at --threads 1:
// with more workers, which path first reaches a shared state decides where
// the depth cap and the dedup cut fall, and how often a state reached again
// with more depth left is expanded again. Those are pinned exactly at one
// thread; at 2 and 8 the test checks the verdict and that the state cap held.
//
// Test names contain "Parallel" so the CI ThreadSanitizer job picks them up.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>

#include "check/explorer.hpp"
#include "check/scenario.hpp"

namespace sa::check {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

struct Golden {
  std::size_t explored;
  std::size_t deduped;
  std::size_t runs;
  std::size_t depth_capped;
  std::size_t sleep_pruned;
  std::map<std::string, std::size_t> outcomes;
};

ExploreResult run(const char* scenario, ExploreOptions options, int threads) {
  options.threads = threads;
  return explore_dfs(make_scenario(scenario), options);
}

void expect_stats(const ExploreResult& result, const Golden& golden, int threads) {
  EXPECT_FALSE(result.counterexample.has_value()) << "threads=" << threads;
  EXPECT_EQ(result.stats.states_explored, golden.explored) << "threads=" << threads;
  EXPECT_EQ(result.stats.states_deduped, golden.deduped) << "threads=" << threads;
  EXPECT_EQ(result.stats.runs_completed, golden.runs) << "threads=" << threads;
  EXPECT_EQ(result.stats.depth_capped, golden.depth_capped) << "threads=" << threads;
  EXPECT_EQ(result.stats.sleep_pruned, golden.sleep_pruned) << "threads=" << threads;
  EXPECT_EQ(result.stats.outcomes, golden.outcomes) << "threads=" << threads;
}

/// An exhaustive search: every counter is pinned at every thread count.
void expect_exhaustive(const char* scenario, const ExploreOptions& options,
                       const Golden& golden) {
  for (const int threads : kThreadCounts) {
    const ExploreResult result = run(scenario, options, threads);
    EXPECT_TRUE(result.complete) << "threads=" << threads;
    expect_stats(result, golden, threads);
  }
}

/// A capped search: pinned exactly at one thread, verdict and state cap at
/// more. Distinct states are the fresh inserts plus the root; a capped
/// parallel search may finish a few in-flight inserts past the cap.
void expect_bounded(const char* scenario, const ExploreOptions& options, const Golden& golden,
                    bool state_capped) {
  for (const int threads : kThreadCounts) {
    const ExploreResult result = run(scenario, options, threads);
    EXPECT_FALSE(result.complete) << "threads=" << threads;
    if (threads == 1) {
      expect_stats(result, golden, threads);
      continue;
    }
    EXPECT_FALSE(result.counterexample.has_value()) << "threads=" << threads;
    const std::size_t distinct =
        result.stats.states_explored - result.stats.states_deduped + 1;
    if (state_capped) {
      EXPECT_GE(distinct, options.max_states) << "threads=" << threads;
    } else {
      EXPECT_LT(distinct, options.max_states) << "threads=" << threads;
      EXPECT_GT(result.stats.depth_capped, 0U) << "threads=" << threads;
    }
  }
}

TEST(ParallelGolden, TinyExhaustive) {
  ExploreOptions options;
  options.max_depth = 300;
  options.max_states = 2'000'000;
  expect_exhaustive("tiny", options,
                    {722'657, 436'507, 43, 0, 0,
                     {{"rolled-back-to-source", 9},
                      {"stalled-after-resume", 2},
                      {"success", 22},
                      {"user-intervention-required", 10}}});
}

TEST(ParallelGolden, TinyExhaustiveWithDporAndSymmetry) {
  ExploreOptions options;
  options.max_depth = 300;
  options.max_states = 2'000'000;
  options.dpor = true;
  options.symmetry = true;
  expect_exhaustive("tiny", options,
                    {8'936, 3'343, 43, 0, 320,
                     {{"rolled-back-to-source", 9},
                      {"stalled-after-resume", 2},
                      {"success", 22},
                      {"user-intervention-required", 10}}});
}

TEST(ParallelGolden, PairDepth24WithDporAndSymmetry) {
  ExploreOptions options;
  options.max_depth = 24;
  options.max_states = 20'000'000;
  options.dpor = true;
  options.symmetry = true;
  expect_bounded("pair", options,
                 {794'030, 392'613, 90, 71'527, 6'145,
                  {{"rolled-back-to-source", 17},
                   {"success", 8},
                   {"user-intervention-required", 65}}},
                 /*state_capped=*/false);
}

TEST(ParallelGolden, PairDepth24WithDuplicateAndReordering) {
  ExploreOptions options;
  options.max_depth = 24;
  options.max_states = 300'000;
  options.dup_budget = 1;
  options.reorder = true;
  expect_bounded("pair", options,
                 {1'037'285, 726'249, 8, 194'277, 0, {{"rolled-back-to-source", 8}}},
                 /*state_capped=*/true);
}

TEST(ParallelGolden, PaperDepth22) {
  ExploreOptions options;
  options.max_depth = 22;
  options.max_states = 400'000;
  expect_bounded("paper", options,
                 {1'082'179, 586'885, 5, 253'201, 0, {{"user-intervention-required", 5}}},
                 /*state_capped=*/true);
}

}  // namespace
}  // namespace sa::check
