// Memory budget of the model checker's visited-state table
// (util/fingerprint_set.hpp): the exhaustive pair search's 3,836,943 states
// fit the up-front reservation of 2^22 slots (32 MiB) under the sets' 15/16
// load policy, 91.5% full on average. No shard grows, so the peak
// is exactly the reservation at every thread count. A policy that doubles
// sooner (3/4 ends at 2^23 slots, 64 MiB plus a growing shard) fails here.
//
// The same searches pin every dedup-invariant counter of the exhaustive pair
// search, so a change to the model or the engine that alters what is
// explored fails here at any of the thread counts. Four threads is where
// workers go idle most often, so frames move between their private stacks
// and the shared deques most there.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>

#include "check/explorer.hpp"
#include "check/scenario.hpp"

namespace sa::check {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

std::size_t kind(Choice::Kind k) { return static_cast<std::size_t>(k); }

ExploreResult pair_exhaustive(int threads) {
  ExploreOptions options;
  options.max_depth = 0;
  options.max_states = 20'000'000;
  options.dpor = true;
  options.symmetry = true;
  options.threads = threads;
  return explore_dfs(make_pair_scenario(), options);
}

TEST(CheckMemory, ExhaustivePairVisitedTableStaysAtItsReservation) {
  for (const int threads : {1, 2, 4}) {
    const ExploreResult result = pair_exhaustive(threads);
    ASSERT_TRUE(result.complete) << "threads=" << threads;
    ASSERT_EQ(result.stats.states_explored, 10'321'894U) << "threads=" << threads;
    EXPECT_EQ(result.stats.edges_by_kind[kind(Choice::Kind::Deliver)], 7'208'376U) << "deliver, threads=" << threads;
    EXPECT_EQ(result.stats.edges_by_kind[kind(Choice::Kind::Drop)], 0U) << "drop, threads=" << threads;
    EXPECT_EQ(result.stats.edges_by_kind[kind(Choice::Kind::Duplicate)], 0U) << "duplicate, threads=" << threads;
    EXPECT_EQ(result.stats.edges_by_kind[kind(Choice::Kind::Fire)], 3'113'518U) << "fire, threads=" << threads;
    EXPECT_EQ(result.stats.states_deduped, 6'484'952U) << "threads=" << threads;
    EXPECT_EQ(result.stats.runs_completed, 201U) << "threads=" << threads;
    EXPECT_EQ(result.stats.depth_capped, 0U) << "threads=" << threads;
    EXPECT_EQ(result.stats.sleep_pruned, 10'873U) << "threads=" << threads;
    const std::map<std::string, std::size_t> outcomes{{"rolled-back-to-source", 63},
                                                      {"stalled-after-resume", 9},
                                                      {"success", 33},
                                                      {"user-intervention-required", 96}};
    EXPECT_EQ(result.stats.outcomes, outcomes) << "threads=" << threads;
    EXPECT_EQ(result.stats.visited_peak_bytes, 32 * kMiB) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace sa::check
