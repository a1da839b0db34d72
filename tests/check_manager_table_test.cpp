// The model checker's per-search manager table (check/manager_table.hpp):
//
//   * equal manager values intern to one handle, and values the fingerprint
//     cannot tell apart but that differ in some field get two;
//   * a memoized step leaves a model exactly where stepping the real core
//     does, for every ManagerFault, and a second pass over the same walks is
//     all hits;
//   * four threads walking the same seeds from one root agree on every
//     handle.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "check/explorer.hpp"
#include "check/manager_table.hpp"
#include "check/model.hpp"
#include "check/scenario.hpp"
#include "proto/core/manager_core.hpp"
#include "util/rng.hpp"

namespace sa::check {
namespace {

ExploreOptions options_with(proto::ManagerFault fault) {
  ExploreOptions options;
  options.fault = fault;
  options.threads = 1;
  return options;
}

/// The manager a Model of `scenario` starts from, before its request.
proto::ManagerCore initial_core(const Scenario& scenario) {
  proto::ManagerCore core(*scenario.invariants, *scenario.actions, *scenario.planner,
                          scenario.manager_config);
  core.set_current_configuration(scenario.source);
  for (const auto& [process, stage] : scenario.stages) core.register_agent(process, stage);
  return core;
}

proto::ManagerCore requested(const Scenario& scenario, std::uint64_t cause_span) {
  proto::ManagerCore core = initial_core(scenario);
  std::vector<proto::Output> out;
  core.step(proto::ManagerInput{proto::ManagerInput::AdaptCommand{scenario.target, cause_span}},
            out);
  return core;
}

std::uint64_t fingerprint_of(const proto::ManagerCore& core) {
  std::uint64_t h = ManagerTable::kFingerprintSeed;
  core.fingerprint(h);
  return h;
}

/// Walks `walks` seeded schedules to quiescence (or a violation) from copies
/// of `root`, calling `visit(model)` after every choice.
template <typename Visit>
void walk(const Model& root, int walks, std::uint64_t seed, const Visit& visit) {
  std::vector<Choice> choices;
  for (int w = 0; w < walks; ++w) {
    util::Rng rng(seed + static_cast<std::uint64_t>(w));
    Model model = root;
    for (model.choices(choices); !choices.empty() && model.violations().empty();
         model.choices(choices)) {
      model.apply(choices[rng.next_below(choices.size())]);
      visit(model);
    }
  }
}

TEST(ManagerTable, EqualValuesInternToOneHandle) {
  const Scenario scenario = make_pair_scenario();
  ManagerTable table;
  const ManagerTable::Handle a = table.intern(requested(scenario, 7));
  const ManagerTable::Handle b = table.intern(requested(scenario, 7));
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.states(), 1U);
  EXPECT_EQ(table.keys(a).fingerprint, fingerprint_of(requested(scenario, 7)));
  EXPECT_NE(table.intern(initial_core(scenario)), a);
  EXPECT_EQ(table.states(), 2U);
}

TEST(ManagerTable, ValuesTheFingerprintSkipsGetTwoHandles) {
  const Scenario scenario = make_pair_scenario();
  // The request's tracing span is value state the fingerprint skips.
  ManagerTable table;
  const proto::ManagerCore first = requested(scenario, 1);
  const proto::ManagerCore second = requested(scenario, 2);
  ASSERT_EQ(fingerprint_of(first), fingerprint_of(second));
  EXPECT_NE(table.intern(first), table.intern(second));

  // Along a search, cores that end a request with different result counters
  // (retransmission rounds, step failures) share a fingerprint too: every
  // such value keeps its own entry, with the keys of its own core.
  Model root = make_model(scenario, options_with(proto::ManagerFault::None));
  root.set_record_transitions(false);
  walk(root, 300, 11, [](const Model&) {});
  const ManagerTable& managers = root.manager_table();
  std::map<std::uint64_t, std::vector<ManagerTable::Handle>> by_fingerprint;
  for (ManagerTable::Handle h = 0; h < managers.states(); ++h) {
    const proto::ManagerCore& core = managers.core(h);
    const ManagerTable::Keys& keys = managers.keys(h);
    EXPECT_EQ(keys.fingerprint, fingerprint_of(core));
    std::uint64_t shared_fp = ManagerTable::kFingerprintSeed;
    core.fingerprint_shared(shared_fp);
    EXPECT_EQ(keys.shared, shared_fp);
    ASSERT_EQ(keys.process_bits.size(), core.agents().size());
    for (std::size_t slot = 0; slot < core.agents().size(); ++slot) {
      EXPECT_EQ(keys.process_bits[slot], core.process_fingerprint(core.agents()[slot].first));
    }
    by_fingerprint[keys.fingerprint].push_back(h);
  }
  std::size_t shared = 0;
  for (const auto& [fp, handles] : by_fingerprint) {
    for (std::size_t i = 1; i < handles.size(); ++i) {
      EXPECT_FALSE(managers.core(handles[0]) == managers.core(handles[i]));
      ++shared;
    }
  }
  EXPECT_GT(shared, 0U) << managers.states() << " values";
}

/// Everything a step leaves in a model that a later step or a property can
/// read, compared between a model stepping from the memo and one stepping
/// the real core.
void expect_same_state(const Model& memo, const Model& real, const std::string& where) {
  ASSERT_EQ(memo.manager_table().core(memo.manager_state()),
            real.manager_table().core(real.manager_state()))
      << where;
  ASSERT_EQ(memo.fingerprint(), real.fingerprint()) << where;
  ASSERT_EQ(memo.canonical_fingerprint(), real.canonical_fingerprint()) << where;
  ASSERT_EQ(memo.choices(), real.choices()) << where;
  ASSERT_EQ(memo.now(), real.now()) << where;
  ASSERT_EQ(memo.violations().size(), real.violations().size()) << where;
  for (std::size_t i = 0; i < memo.violations().size(); ++i) {
    ASSERT_EQ(memo.violations()[i].description, real.violations()[i].description) << where;
  }
  ASSERT_EQ(memo.outcome() != nullptr, real.outcome() != nullptr) << where;
  if (memo.outcome() != nullptr) {
    ASSERT_EQ(*memo.outcome(), *real.outcome()) << where;
  }
}

TEST(ManagerTable, AMemoHitStepsLikeTheCoreForEveryFault) {
  const Scenario scenario = make_pair_scenario();
  for (const proto::ManagerFault fault :
       {proto::ManagerFault::None, proto::ManagerFault::ResumeBeforeLastAdaptDone,
        proto::ManagerFault::RollbackAfterResume}) {
    const ExploreOptions options = options_with(fault);
    Model root = make_model(scenario, options);
    root.set_record_transitions(false);  // steps from the memo
    std::size_t recorded = 0;
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<Choice> choices;
      std::size_t violating = 0;
      for (int w = 0; w < 200; ++w) {
        util::Rng rng(100 + static_cast<std::uint64_t>(w));
        Model memo = root;
        Model real = make_model(scenario, options);  // records: steps the real core
        for (memo.choices(choices); !choices.empty() && memo.violations().empty();
             memo.choices(choices)) {
          const Choice choice = choices[rng.next_below(choices.size())];
          ASSERT_TRUE(memo.apply(choice));
          ASSERT_TRUE(real.apply(choice));
          expect_same_state(memo, real,
                            std::string(to_string(fault)) + " walk " + std::to_string(w));
        }
        if (!memo.violations().empty()) ++violating;
      }
      // Random walks seldom exhaust the resume retries that the rollback
      // fault needs; the early resume shows on many of them.
      if (fault == proto::ManagerFault::ResumeBeforeLastAdaptDone) {
        EXPECT_GT(violating, 0U) << "the walks never reach the early resume";
      }
      // The second pass repeats the first one's steps: every one is a hit.
      if (pass == 0) {
        recorded = root.manager_table().steps();
        EXPECT_GT(recorded, 0U);
      } else {
        EXPECT_EQ(root.manager_table().steps(), recorded) << to_string(fault);
      }
    }
  }
}

TEST(ManagerTable, FourThreadsWalkingTheSameSeedsAgreeOnEveryHandle) {
  const Scenario scenario = make_pair_scenario();
  Model root = make_model(scenario, options_with(proto::ManagerFault::None));
  root.set_record_transitions(false);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<ManagerTable::Handle>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&root, &got, t] {
      walk(root, 100, 5, [&got, t](const Model& m) { got[t].push_back(m.manager_state()); });
    });
  }
  for (std::thread& thread : threads) thread.join();

  // One thread on a table of its own steps through the same values.
  Model alone = make_model(scenario, options_with(proto::ManagerFault::None));
  alone.set_record_transitions(false);
  std::vector<ManagerTable::Handle> reference;
  walk(alone, 100, 5, [&reference](const Model& m) { reference.push_back(m.manager_state()); });

  ASSERT_EQ(got[0].size(), reference.size());
  for (std::size_t t = 1; t < kThreads; ++t) ASSERT_EQ(got[t], got[0]) << "thread " << t;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(root.manager_table().core(got[0][i]), alone.manager_table().core(reference[i]))
        << "step " << i;
  }
  EXPECT_EQ(root.manager_table().states(), alone.manager_table().states());
  EXPECT_EQ(root.manager_table().steps(), alone.manager_table().steps());
}

}  // namespace
}  // namespace sa::check
