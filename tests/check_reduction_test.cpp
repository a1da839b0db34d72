// State-space reductions (ExploreOptions::dpor / ::symmetry): the independence
// relation must be semantically sound (independent choices really commute),
// sleep sets must not change what a complete search concludes (same leaf
// outcomes, same verdicts, mutations still caught), and the canonical
// fingerprint must be invariant exactly under agent-role permutations and
// cross-channel creation-order interleavings — nothing more.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "check/model.hpp"
#include "check/scenario.hpp"
#include "check/sleep_set.hpp"
#include "util/rng.hpp"

namespace sa::check {
namespace {

// --- fixtures ----------------------------------------------------------------

/// Two genuinely interchangeable agents: same reset stage, isomorphic hosted
/// components and invariants, one joint swap step. `swapped` relabels which
/// process hosts which component pair — the two variants are exact process
/// renamings of each other, so canonical fingerprints must coincide while
/// plain fingerprints may not.
Scenario make_twin_scenario(bool swapped) {
  const config::ProcessId ab = swapped ? 1 : 0;
  const config::ProcessId cd = swapped ? 0 : 1;
  Scenario s;
  s.name = swapped ? "twin-swapped" : "twin";
  s.registry = std::make_unique<config::ComponentRegistry>();
  s.registry->add("A", ab, "left incumbent");
  s.registry->add("B", ab, "left replacement");
  s.registry->add("C", cd, "right incumbent");
  s.registry->add("D", cd, "right replacement");
  s.invariants = std::make_unique<config::InvariantSet>(*s.registry);
  s.invariants->add("left exclusive", "one(A, B)");
  s.invariants->add("right exclusive", "one(C, D)");
  s.invariants->add("A needs C", "A -> C");
  s.invariants->add("C needs A", "C -> A");
  s.actions = std::make_unique<actions::ActionTable>(*s.registry);
  s.actions->add("swap", {"A", "C"}, {"B", "D"}, 1.0, "joint replacement");
  s.actions->add("unswap", {"B", "D"}, {"A", "C"}, 1.0, "joint reverse");
  // Both agents in stage 0: resets fan out concurrently, so the initial
  // state already has one in-flight message per channel.
  s.stages = {{0, 0}, {1, 0}};
  s.source = config::Configuration::of(*s.registry, {"A", "C"});
  s.target = config::Configuration::of(*s.registry, {"B", "D"});
  s.safe_configs = config::enumerate_safe_pruned(*s.invariants);
  s.sag = std::make_unique<actions::SafeAdaptationGraph>(*s.actions, s.safe_configs);
  s.planner = std::make_unique<actions::PathPlanner>(*s.sag);
  return s;
}

/// Pair scenario shrunk enough (no retransmission rounds) that even the
/// unreduced search is exhaustive within a unit-test budget.
Scenario make_small_pair_scenario() {
  Scenario s = make_pair_scenario();
  s.manager_config.message_retries = 0;
  s.manager_config.run_to_completion_retries = 0;
  return s;
}

/// First enabled choice of `kind` whose footprint touches the channel of
/// agent `process`; FAILs the test if absent.
Choice choice_on_channel(const Model& model, Choice::Kind kind, config::ProcessId process) {
  for (const Choice& c : model.choices()) {
    if (c.kind != kind) continue;
    const ChoiceFootprint fp = model.choice_footprint(c);
    if (fp.channel_agent == process) return c;
  }
  ADD_FAILURE() << "no " << to_string(kind) << " choice on channel of process " << process;
  return Choice{};
}

// --- independence oracle -----------------------------------------------------

TEST(Reduction, FootprintsOfConcurrentResetsAreIndependent) {
  const Scenario scenario = make_twin_scenario(false);
  Model model(scenario, Model::Limits{1, 1, false});
  model.start();
  const Choice d0 = choice_on_channel(model, Choice::Kind::Deliver, 0);
  const Choice d1 = choice_on_channel(model, Choice::Kind::Deliver, 1);
  const ChoiceFootprint f0 = model.choice_footprint(d0);
  const ChoiceFootprint f1 = model.choice_footprint(d1);
  // Deliveries on distinct channels step distinct agent cores: independent.
  EXPECT_FALSE(choices_dependent(f0, f1));
  EXPECT_FALSE(choices_dependent(f1, f0));
  // Same message delivered vs dropped vs duplicated: all pairwise dependent.
  const ChoiceFootprint drop0 = model.choice_footprint(choice_on_channel(model, Choice::Kind::Drop, 0));
  const ChoiceFootprint dup0 = model.choice_footprint(choice_on_channel(model, Choice::Kind::Duplicate, 0));
  EXPECT_TRUE(choices_dependent(f0, drop0));
  EXPECT_TRUE(choices_dependent(f0, dup0));
  EXPECT_TRUE(choices_dependent(drop0, dup0));
  // Drops on distinct channels share the drop budget: dependent. Same for
  // duplicates.
  const ChoiceFootprint drop1 = model.choice_footprint(choice_on_channel(model, Choice::Kind::Drop, 1));
  const ChoiceFootprint dup1 = model.choice_footprint(choice_on_channel(model, Choice::Kind::Duplicate, 1));
  EXPECT_TRUE(choices_dependent(drop0, drop1));
  EXPECT_TRUE(choices_dependent(dup0, dup1));
  // A duplicate conflicts with the producer of its channel (manager, for a
  // manager->agent reset) but not with the other agent's delivery.
  EXPECT_FALSE(choices_dependent(dup0, f1));
}

TEST(Reduction, DuplicateRacesItsChannelProducer) {
  // Synthetic footprints: Dup on the agent0->manager channel races a Deliver
  // that steps agent0 (the producer), but not one stepping agent1.
  ChoiceFootprint dup;
  dup.choice = Choice{Choice::Kind::Duplicate, 10};
  dup.kind = Choice::Kind::Duplicate;
  dup.channel_agent = 0;
  dup.channel_to_manager = true;
  ChoiceFootprint deliver_to_0;
  deliver_to_0.choice = Choice{Choice::Kind::Deliver, 11};
  deliver_to_0.kind = Choice::Kind::Deliver;
  deliver_to_0.entity = 0;
  deliver_to_0.channel_agent = 0;
  deliver_to_0.channel_to_manager = false;
  ChoiceFootprint deliver_to_1 = deliver_to_0;
  deliver_to_1.choice.seq = 12;
  deliver_to_1.entity = 1;
  deliver_to_1.channel_agent = 1;
  EXPECT_TRUE(choices_dependent(dup, deliver_to_0));
  EXPECT_TRUE(choices_dependent(deliver_to_0, dup));
  EXPECT_FALSE(choices_dependent(dup, deliver_to_1));
}

// The semantic anchor: along random walks, every co-enabled pair the oracle
// calls independent must actually commute — both orders stay enabled and land
// in the identical concrete state. This is the property every sleep-set prune
// relies on.
TEST(Reduction, IndependentChoicesCommuteAlongRandomWalks) {
  for (const char* name : {"tiny", "pair"}) {
    const Scenario scenario = make_scenario(name);
    ExploreOptions options;
    options.drop_budget = 1;
    options.dup_budget = 1;
    options.reorder = true;
    std::size_t pairs_checked = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      util::Rng rng(seed);
      Model model = make_model(scenario, options);
      model.set_record_transitions(false);
      for (int step = 0; step < 60; ++step) {
        const std::vector<Choice> choices = model.choices();
        if (choices.empty()) break;
        for (std::size_t i = 0; i < choices.size(); ++i) {
          for (std::size_t j = i + 1; j < choices.size(); ++j) {
            const ChoiceFootprint fi = model.choice_footprint(choices[i]);
            const ChoiceFootprint fj = model.choice_footprint(choices[j]);
            if (choices_dependent(fi, fj)) continue;
            Model ab = model;
            Model ba = model;
            ASSERT_TRUE(ab.apply(choices[i]));
            ASSERT_TRUE(ab.apply(choices[j])) << name << ": independent choice disabled";
            ASSERT_TRUE(ba.apply(choices[j]));
            ASSERT_TRUE(ba.apply(choices[i])) << name << ": independent choice disabled";
            // Commutation holds modulo the state abstraction: both orders
            // yield the same per-channel FIFO contents, cores, and budgets,
            // but messages *enter* the network in a different global creation
            // order — which the plain fingerprint keeps and the canonical one
            // erases. The canonical print is therefore the right oracle.
            ASSERT_EQ(ab.canonical_fingerprint(), ba.canonical_fingerprint())
                << name << " seed " << seed << " step " << step << ": "
                << to_string(choices[i].kind) << " seq " << choices[i].seq << " vs "
                << to_string(choices[j].kind) << " seq " << choices[j].seq
                << " do not commute";
            ASSERT_EQ(ab.violations().size(), ba.violations().size());
            ++pairs_checked;
          }
        }
        model.apply(choices[rng.next_below(choices.size())]);
      }
    }
    EXPECT_GT(pairs_checked, 100u) << name << ": walk never saw independent pairs";
  }
}

// --- DPOR preserves complete-search results ----------------------------------

void expect_same_conclusions(const ExploreResult& reference, const ExploreResult& result,
                             const std::string& label) {
  ASSERT_TRUE(reference.complete) << label;
  ASSERT_TRUE(result.complete) << label;
  EXPECT_EQ(result.counterexample.has_value(), reference.counterexample.has_value()) << label;
  EXPECT_EQ(result.stats.runs_completed, reference.stats.runs_completed) << label;
  EXPECT_EQ(result.stats.outcomes, reference.stats.outcomes) << label;
  EXPECT_EQ(result.stats.depth_capped, 0u) << label;
}

// The engine keys a child by the sum of its sleep entries' hashes and builds
// the set only for a child the visited set has not seen. Both must agree with
// the eager construction the engine used before: every child's set copied
// from full footprints, then hashed entry by entry. Along random walks with
// drops, duplicates and reordering (so every dependence rule fires), each
// state's enabled choices play the awake siblings and every other one the
// inherited set.
TEST(Reduction, LazySleepSetsMatchEagerConstruction) {
  std::size_t children = 0;
  std::size_t entries_seen = 0;
  for (const char* name : {"tiny", "pair"}) {
    const Scenario scenario = make_scenario(name);
    ExploreOptions options;
    options.drop_budget = 1;
    options.dup_budget = 1;
    options.reorder = true;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      util::Rng rng(seed);
      Model model = make_model(scenario, options);
      model.set_record_transitions(false);
      std::vector<ChoiceFootprint> fps;
      for (model.choice_footprints(fps); !fps.empty(); model.choice_footprints(fps)) {
        std::vector<ChoiceFootprint> inherited_fps;
        SleepSet inherited;
        std::vector<SleepEntry> awake;
        for (std::size_t i = 0; i < fps.size(); ++i) {
          awake.push_back(sleep_entry(fps[i]));
          if (i % 2 == 1) {
            inherited_fps.push_back(fps[i]);
            inherited.push_back(sleep_entry(fps[i]));
          }
        }
        for (std::size_t index = 0; index < fps.size(); ++index) {
          // Eager: the child's set as full footprints, in set order.
          std::vector<ChoiceFootprint> eager;
          for (const ChoiceFootprint& s : inherited_fps) {
            if (!choices_dependent(s, fps[index])) eager.push_back(s);
          }
          for (std::size_t j = 0; j < index; ++j) {
            if (!choices_dependent(fps[j], fps[index])) eager.push_back(fps[j]);
          }
          std::uint64_t eager_hash = 0;
          for (const ChoiceFootprint& fp : eager) eager_hash += sleep_entry_hash(fp);
          // Lazy: the hash first, the set only afterwards.
          std::uint64_t lazy_hash = 0;
          for_each_child_sleep_entry(inherited, awake, index,
                                     [&lazy_hash](const SleepEntry& e) { lazy_hash += e.hash; });
          SleepSet lazy;
          for_each_child_sleep_entry(inherited, awake, index,
                                     [&lazy](const SleepEntry& e) { lazy.push_back(e); });
          ASSERT_EQ(lazy_hash, eager_hash) << name;
          ASSERT_EQ(lazy.size(), eager.size()) << name;
          for (std::size_t k = 0; k < eager.size(); ++k) {
            const ChoiceAccess want = ChoiceAccess::of(eager[k]);
            EXPECT_EQ(lazy[k].access.seq, want.seq) << name;
            EXPECT_EQ(lazy[k].access.kind, want.kind) << name;
            EXPECT_EQ(lazy[k].access.entity, want.entity) << name;
            EXPECT_EQ(lazy[k].access.channel_agent, want.channel_agent) << name;
            EXPECT_EQ(lazy[k].access.channel_to_manager, want.channel_to_manager) << name;
            EXPECT_EQ(lazy[k].hash, sleep_entry_hash(eager[k])) << name;
          }
          ++children;
          entries_seen += eager.size();
        }
        model.apply(fps[rng.next_below(fps.size())].choice);
      }
    }
  }
  EXPECT_GT(children, 1000U);
  EXPECT_GT(entries_seen, children);  // the sets are not mostly empty
}

TEST(Reduction, TinyOutcomesUnchangedByEitherReduction) {
  const Scenario scenario = make_tiny_scenario();
  ExploreOptions options;
  options.max_depth = 300;
  options.max_states = 2'000'000;
  const ExploreResult off = explore_dfs(scenario, options);
  ASSERT_FALSE(off.counterexample.has_value());
  for (const bool dpor : {false, true}) {
    for (const bool symmetry : {false, true}) {
      if (!dpor && !symmetry) continue;
      ExploreOptions reduced = options;
      reduced.dpor = dpor;
      reduced.symmetry = symmetry;
      const ExploreResult result = explore_dfs(scenario, reduced);
      expect_same_conclusions(off, result,
                              std::string("tiny dpor=") + (dpor ? "1" : "0") +
                                  " symmetry=" + (symmetry ? "1" : "0"));
      if (dpor) {
        EXPECT_LT(result.stats.states_explored, off.stats.states_explored);
      }
    }
  }
}

TEST(Reduction, SmallPairOutcomesUnchangedByEitherReduction) {
  // Retransmissions off so the unreduced search is exhaustive in-budget; the
  // interleaving structure (two agents, staged resets, cross-channel races)
  // is untouched.
  const Scenario scenario = make_small_pair_scenario();
  ExploreOptions options;
  options.max_depth = 0;  // unbounded
  options.max_states = 20'000'000;
  options.threads = 0;
  const ExploreResult off = explore_dfs(scenario, options);
  ASSERT_FALSE(off.counterexample.has_value());
  for (const bool dpor : {false, true}) {
    for (const bool symmetry : {false, true}) {
      if (!dpor && !symmetry) continue;
      ExploreOptions reduced = options;
      reduced.dpor = dpor;
      reduced.symmetry = symmetry;
      const ExploreResult result = explore_dfs(scenario, reduced);
      expect_same_conclusions(off, result,
                              std::string("small-pair dpor=") + (dpor ? "1" : "0") +
                                  " symmetry=" + (symmetry ? "1" : "0"));
    }
  }
}

// --- reductions must not hide the seeded mutations ---------------------------

TEST(Reduction, ResumeEarlyMutationCaughtWithReductionsOn) {
  const Scenario scenario = make_pair_scenario();
  ExploreOptions options;
  options.max_depth = 40;
  options.fault = proto::ManagerFault::ResumeBeforeLastAdaptDone;
  options.dpor = true;
  options.symmetry = true;
  const ExploreResult result = explore_dfs(scenario, options);
  ASSERT_TRUE(result.counterexample.has_value());
  ASSERT_FALSE(result.counterexample->violations.empty());
  EXPECT_NE(result.counterexample->violations.front().find("§4.3"), std::string::npos);
  // The schedule is concrete, never canonicalized: it must replay verbatim.
  const ReplayResult replayed = replay(scenario, options, result.counterexample->schedule);
  EXPECT_TRUE(replayed.schedule_valid);
  ASSERT_FALSE(replayed.violations.empty());
  EXPECT_EQ(replayed.violations.front().description,
            result.counterexample->violations.front());
}

TEST(Reduction, RollbackAfterResumeMutationCaughtWithReductionsOn) {
  Scenario scenario = make_tiny_scenario();
  scenario.manager_config.message_retries = 0;
  scenario.manager_config.run_to_completion_retries = 0;
  ExploreOptions options;
  options.max_depth = 60;
  options.max_states = 500'000;
  options.drop_budget = 1;
  options.fault = proto::ManagerFault::RollbackAfterResume;
  options.dpor = true;
  options.symmetry = true;
  const ExploreResult result = explore_dfs(scenario, options);
  ASSERT_TRUE(result.counterexample.has_value());
  ASSERT_FALSE(result.counterexample->violations.empty());
  EXPECT_NE(result.counterexample->violations.front().find("§4.4"), std::string::npos);
  const ReplayResult replayed = replay(scenario, options, result.counterexample->schedule);
  EXPECT_TRUE(replayed.schedule_valid);
  ASSERT_FALSE(replayed.violations.empty());
}

// --- symmetry orbit canonicalization -----------------------------------------

TEST(Reduction, CanonicalFingerprintInvariantUnderAgentRelabeling) {
  // twin and twin-swapped are exact process renamings of one another; walking
  // mirrored schedules must keep canonical fingerprints equal at every step.
  const Scenario plain = make_twin_scenario(false);
  const Scenario swapped = make_twin_scenario(true);
  Model a(plain, Model::Limits{});
  Model b(swapped, Model::Limits{});
  a.start();
  b.start();
  EXPECT_EQ(a.canonical_fingerprint(), b.canonical_fingerprint());
  // Deliver the reset for the {A,B}-hosting agent in both worlds (process 0
  // in `plain`, process 1 in `swapped`): still the same orbit...
  ASSERT_TRUE(a.apply(choice_on_channel(a, Choice::Kind::Deliver, 0)));
  ASSERT_TRUE(b.apply(choice_on_channel(b, Choice::Kind::Deliver, 1)));
  EXPECT_EQ(a.canonical_fingerprint(), b.canonical_fingerprint());
  // ...while the concrete states differ (different process progressed), which
  // the plain fingerprint is allowed to see.
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Reduction, CanonicalFingerprintErasesCrossChannelCreationOrder) {
  // Delivering the two concurrent stage-0 resets in either order reaches the
  // same abstract state, but the done-replies enter the network in different
  // creation orders. The plain fingerprint (creation-order walk) may tell
  // them apart; the canonical one must not.
  const Scenario scenario = make_twin_scenario(false);
  Model first(scenario, Model::Limits{});
  Model second(scenario, Model::Limits{});
  first.start();
  second.start();
  ASSERT_TRUE(first.apply(choice_on_channel(first, Choice::Kind::Deliver, 0)));
  ASSERT_TRUE(first.apply(choice_on_channel(first, Choice::Kind::Deliver, 1)));
  ASSERT_TRUE(second.apply(choice_on_channel(second, Choice::Kind::Deliver, 1)));
  ASSERT_TRUE(second.apply(choice_on_channel(second, Choice::Kind::Deliver, 0)));
  EXPECT_EQ(first.canonical_fingerprint(), second.canonical_fingerprint());
}

TEST(Reduction, NonSymmetricStatesKeepDistinctCanonicalFingerprints) {
  const Scenario scenario = make_twin_scenario(false);
  // One reset delivered vs none: different protocol progress.
  Model idle(scenario, Model::Limits{});
  Model progressed(scenario, Model::Limits{});
  idle.start();
  progressed.start();
  ASSERT_TRUE(progressed.apply(choice_on_channel(progressed, Choice::Kind::Deliver, 0)));
  EXPECT_NE(idle.canonical_fingerprint(), progressed.canonical_fingerprint());

  // Asymmetric roles: in the *pair* scenario the two agents sit in different
  // reset stages, so advancing agent 0 is NOT equivalent to advancing agent 1
  // — canonicalization must keep distinguishable agents distinguishable.
  const Scenario pair_plain = make_twin_scenario(false);
  Model left(pair_plain, Model::Limits{});
  Model right(pair_plain, Model::Limits{});
  left.start();
  right.start();
  ASSERT_TRUE(left.apply(choice_on_channel(left, Choice::Kind::Deliver, 0)));
  ASSERT_TRUE(right.apply(choice_on_channel(right, Choice::Kind::Deliver, 1)));
  // Even stage-symmetric twins host differently-named components, so their
  // roles — and the reset commands they receive — differ: advancing one is
  // not the same orbit as advancing the other. (The genuine invariance is
  // over process-id relabelings, covered above.)
  EXPECT_NE(left.canonical_fingerprint(), right.canonical_fingerprint());
  // But in the staged pair scenario the agents have different roles: every
  // delivery moves the state to a new orbit, never back onto an old one.
  const Scenario staged = make_pair_scenario();
  Model m(staged, Model::Limits{});
  m.start();
  const std::uint64_t before = m.canonical_fingerprint();
  ASSERT_TRUE(m.apply(choice_on_channel(m, Choice::Kind::Deliver, 0)));
  EXPECT_NE(before, m.canonical_fingerprint());
}

// --- schedule files round-trip the new toggles -------------------------------

TEST(Reduction, ScheduleJsonRoundTripsReductionFlags) {
  ScheduleFile file;
  file.scenario = "pair";
  file.options.dpor = true;
  file.options.symmetry = true;
  file.options.max_depth = 0;
  file.schedule.push_back(Choice{Choice::Kind::Deliver, 3});
  const ScheduleFile parsed = schedule_from_json(to_json(file));
  EXPECT_TRUE(parsed.options.dpor);
  EXPECT_TRUE(parsed.options.symmetry);
  EXPECT_EQ(parsed.options.max_depth, 0);
  ASSERT_EQ(parsed.schedule.size(), 1u);
  EXPECT_EQ(parsed.schedule.front(), (Choice{Choice::Kind::Deliver, 3}));
}

}  // namespace
}  // namespace sa::check
