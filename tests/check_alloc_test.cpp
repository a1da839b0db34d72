// Allocation budget of the model checker's hot path (src/check): forking a
// Model into a recycled one must not allocate, and a search must stay within
// a small fraction of an allocation per explored edge. Schedule nodes and
// sent messages come from per-thread free lists (util/block_pool.hpp),
// outcomes carry no text, and the manager steps each (value, input) pair of
// a search once (check/manager_table.hpp), so a reset's command is built and
// a failed step re-planned only the first time. What is left is the search's
// own bookkeeping and the agents' steps: 0.0012 allocations per edge on the
// exhaustive pair search, 0.0032 on the bounded three-agent search.
//
// The binary links sa_alloc_counter, which replaces the global operator new
// with a counting one.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "alloc_counter.hpp"
#include "check/explorer.hpp"
#include "check/model.hpp"
#include "check/scenario.hpp"
#include "util/rng.hpp"

namespace sa::check {
namespace {

using sa::testing::AllocationScope;

ExploreOptions pair_exhaustive_options() {
  ExploreOptions options;
  options.max_depth = 0;
  options.max_states = 20'000'000;
  options.dpor = true;
  options.symmetry = true;
  options.threads = 1;
  return options;
}

/// A bounded search of the three-agent paper scenario, with the CI bounds.
ExploreOptions paper_bounded_options() {
  ExploreOptions options;
  options.max_depth = 22;
  options.max_states = 400'000;
  options.threads = 1;
  return options;
}

/// Every state along seeded random walks to quiescence on `scenario`.
std::vector<Model> random_walk_states(const Scenario& scenario, const ExploreOptions& options,
                                      int walks) {
  std::vector<Model> states;
  std::vector<Choice> choices;
  util::Rng rng(17);
  for (int walk = 0; walk < walks; ++walk) {
    Model model = make_model(scenario, options);
    model.set_record_transitions(false);
    states.push_back(model);
    for (model.choices(choices); !choices.empty(); model.choices(choices)) {
      model.apply(choices[rng.next_below(choices.size())]);
      states.push_back(model);
    }
  }
  return states;
}

/// Copies every state of `states` into a pool of recycled models — ones that
/// already held a state of the same scenario, as in the engine's per-worker
/// pool — and returns the allocations made.
std::size_t allocations_copying_into_recycled(const std::vector<Model>& states) {
  std::vector<Model> recycled(8, states.front());
  const AllocationScope scope;
  for (std::size_t i = 0; i < states.size(); ++i) recycled[i % recycled.size()] = states[i];
  return scope.count();
}

TEST(CheckAlloc, CopyIntoRecycledModelAllocatesNothing) {
  const Scenario scenario = make_pair_scenario();
  const std::vector<Model> states =
      random_walk_states(scenario, pair_exhaustive_options(), 200);
  ASSERT_GT(states.size(), 1000U);
  EXPECT_EQ(allocations_copying_into_recycled(states), 0U) << "over " << states.size()
                                                           << " copies";
}

TEST(CheckAlloc, CopyIntoRecycledThreeAgentModelAllocatesNothing) {
  const Scenario scenario = make_scenario("paper");
  const std::vector<Model> states = random_walk_states(scenario, paper_bounded_options(), 50);
  ASSERT_GT(states.size(), 1000U);
  EXPECT_EQ(allocations_copying_into_recycled(states), 0U) << "over " << states.size()
                                                           << " copies";
}

TEST(CheckAlloc, ExhaustivePairSearchStaysUnderOneAllocationPerTwoHundredEdges) {
  const Scenario scenario = make_pair_scenario();
  ExploreResult result;
  std::size_t allocations = 0;
  {
    const AllocationScope scope;
    result = explore_dfs(scenario, pair_exhaustive_options());
    allocations = scope.count();
  }
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.stats.states_explored, 10'321'894U);
  const double per_edge =
      static_cast<double>(allocations) / static_cast<double>(result.stats.states_explored);
  RecordProperty("allocations_per_edge", std::to_string(per_edge));
  EXPECT_LE(per_edge, 0.005) << allocations << " allocations over "
                            << result.stats.states_explored << " edges";
}

TEST(CheckAlloc, BoundedThreeAgentSearchStaysUnderOneAllocationPerHundredEdges) {
  const Scenario scenario = make_scenario("paper");
  ExploreResult result;
  std::size_t allocations = 0;
  {
    const AllocationScope scope;
    result = explore_dfs(scenario, paper_bounded_options());
    allocations = scope.count();
  }
  ASSERT_FALSE(result.counterexample.has_value());
  ASSERT_GT(result.stats.states_explored, 100'000U);
  const double per_edge =
      static_cast<double>(allocations) / static_cast<double>(result.stats.states_explored);
  RecordProperty("allocations_per_edge", std::to_string(per_edge));
  EXPECT_LE(per_edge, 0.01) << allocations << " allocations over "
                            << result.stats.states_explored << " edges";
}

}  // namespace
}  // namespace sa::check
