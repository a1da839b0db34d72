#include <gtest/gtest.h>

#include <map>

#include "core/composite.hpp"
#include "core/paper_scenario.hpp"
#include "proto/conformance.hpp"
#include "sim/network.hpp"

namespace sa::core {
namespace {

struct StubProcess : proto::AdaptableProcess {
  int applies = 0;
  bool fail_to_quiesce = false;
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override {
    if (!fail_to_quiesce) reached();
  }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override {
    ++applies;
    return true;
  }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override {}
};

/// k independent clusters: components X<i>/Y<i> on process i, one(X,Y)
/// invariant, a swap action per cluster.
struct ClusterFixture {
  CompositeAdaptationSystem system;
  std::map<config::ProcessId, std::unique_ptr<StubProcess>> processes;
  std::size_t clusters;

  explicit ClusterFixture(std::size_t k, CompositeConfig config = {})
      : system(config), clusters(k) {
    for (std::size_t c = 0; c < k; ++c) {
      const std::string s = std::to_string(c);
      system.registry().add("X" + s, static_cast<config::ProcessId>(c));
      system.registry().add("Y" + s, static_cast<config::ProcessId>(c));
    }
    for (std::size_t c = 0; c < k; ++c) {
      const std::string s = std::to_string(c);
      system.add_invariant("one" + s, "one(X" + s + ", Y" + s + ")");
      system.add_action("swap" + s, {"X" + s}, {"Y" + s}, 10);
      system.add_action("back" + s, {"Y" + s}, {"X" + s}, 10);
    }
    for (std::size_t c = 0; c < k; ++c) {
      auto process = std::make_unique<StubProcess>();
      system.attach_process(static_cast<config::ProcessId>(c), *process, 0);
      processes.emplace(static_cast<config::ProcessId>(c), std::move(process));
    }
    system.finalize();
  }

  config::Configuration all_x() const {
    config::Configuration config;
    for (std::size_t c = 0; c < clusters; ++c) {
      config = config.with(static_cast<config::ComponentId>(2 * c));
    }
    return config;
  }
  config::Configuration all_y() const {
    config::Configuration config;
    for (std::size_t c = 0; c < clusters; ++c) {
      config = config.with(static_cast<config::ComponentId>(2 * c + 1));
    }
    return config;
  }
};

TEST(Composite, ShardsByCollaborativeSet) {
  ClusterFixture fixture(4);
  EXPECT_EQ(fixture.system.shard_count(), 4U);
  for (std::size_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(fixture.system.shard_members(shard).size(), 2U);
    // Each shard plans over a 2-component sub-scenario: 2 safe configs.
    EXPECT_EQ(fixture.system.shard_manager(shard).safe_configurations().size(), 2U);
  }
}

TEST(Composite, AdaptsAllClustersConcurrently) {
  ClusterFixture fixture(4);
  fixture.system.set_current_configuration(fixture.all_x());
  const auto result = fixture.system.adapt_and_wait(fixture.all_y());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.shard_results.size(), 4U);
  EXPECT_EQ(result.final_config, fixture.all_y());
  EXPECT_EQ(fixture.system.current_configuration(), fixture.all_y());
  for (auto& [process, stub] : fixture.processes) EXPECT_EQ(stub->applies, 1);

  // Concurrency: four disjoint single-step adaptations take barely longer
  // than one (they overlap on the virtual timeline), far less than 4x.
  ClusterFixture solo(1);
  solo.system.set_current_configuration(solo.all_x());
  const auto single = solo.system.adapt_and_wait(solo.all_y());
  const sim::Time composite_duration = result.finished - result.started;
  const sim::Time single_duration = single.finished - single.started;
  EXPECT_LT(composite_duration, 2 * single_duration)
      << "composite " << composite_duration << "us vs single " << single_duration << "us";
}

TEST(Composite, SubsetRequestTouchesOnlyInvolvedShards) {
  ClusterFixture fixture(3);
  fixture.system.set_current_configuration(fixture.all_x());
  // Flip only cluster 1.
  auto target = fixture.all_x()
                    .without(2)  // X1
                    .with(3);    // Y1
  const auto result = fixture.system.adapt_and_wait(target);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.shard_results.size(), 1U);  // only one shard worked
  EXPECT_EQ(fixture.processes.at(1)->applies, 1);
  EXPECT_EQ(fixture.processes.at(0)->applies, 0);
  EXPECT_EQ(fixture.processes.at(2)->applies, 0);
  EXPECT_EQ(fixture.system.current_configuration(), target);
}

TEST(Composite, NoOpRequestSucceedsImmediately) {
  ClusterFixture fixture(2);
  fixture.system.set_current_configuration(fixture.all_x());
  const auto result = fixture.system.adapt_and_wait(fixture.all_x());
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.shard_results.empty());
}

TEST(Composite, PartialFailureIsolatedToItsShard) {
  ClusterFixture fixture(3, [] {
    CompositeConfig config;
    config.manager.reset_timeout = sim::ms(50);
    config.manager.message_retries = 1;
    return config;
  }());
  fixture.processes.at(1)->fail_to_quiesce = true;
  fixture.system.set_current_configuration(fixture.all_x());
  const auto result = fixture.system.adapt_and_wait(fixture.all_y());

  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.shard_results.size(), 3U);
  int successes = 0;
  for (const auto& shard_result : result.shard_results) {
    successes += shard_result.outcome == proto::AdaptationOutcome::Success;
  }
  EXPECT_EQ(successes, 2);  // the two healthy clusters adapted
  // The stitched configuration is safe in every shard.
  const auto final_config = fixture.system.current_configuration();
  EXPECT_TRUE(final_config.contains(1));   // Y0 swapped
  EXPECT_TRUE(final_config.contains(2));   // X1 still in place
  EXPECT_TRUE(final_config.contains(5));   // Y2 swapped
}

TEST(Composite, SharedProcessForcesSerialLane) {
  // Two clusters whose components live on the SAME process: they must share a
  // lane, serializing their adaptations — and both still succeed.
  CompositeAdaptationSystem system;
  system.registry().add("X0", 0);
  system.registry().add("Y0", 0);
  system.registry().add("X1", 0);  // same process as cluster 0
  system.registry().add("Y1", 0);
  system.add_invariant("one0", "one(X0, Y0)");
  system.add_invariant("one1", "one(X1, Y1)");
  system.add_action("swap0", {"X0"}, {"Y0"}, 10);
  system.add_action("swap1", {"X1"}, {"Y1"}, 10);
  StubProcess process;
  system.attach_process(0, process, 0);
  system.finalize();
  EXPECT_EQ(system.shard_count(), 2U);

  const auto source = config::Configuration::of(system.registry(), {"X0", "X1"});
  const auto target = config::Configuration::of(system.registry(), {"Y0", "Y1"});
  system.set_current_configuration(source);
  const auto result = system.adapt_and_wait(target);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.final_config, target);
  EXPECT_EQ(process.applies, 2);
}

TEST(Composite, PaperScenarioCollapsesToOneShard) {
  // The case study's invariants connect everything: sharding must be a no-op
  // and produce the same MAP behaviour as the plain system.
  CompositeAdaptationSystem system;
  register_paper_components(system.registry());
  system.add_invariant("resource constraint", "one(D1, D2, D3)");
  system.add_invariant("security constraint", "one(E1, E2)");
  system.add_invariant("E1 dependency", "E1 -> (D1 | D2) & D4");
  system.add_invariant("E2 dependency", "E2 -> (D3 | D2) & D5");
  system.add_action("A1", {"E1"}, {"E2"}, 10);
  system.add_action("A2", {"D1"}, {"D2"}, 10);
  system.add_action("A4", {"D2"}, {"D3"}, 10);
  system.add_action("A16", {"D4"}, {}, 10);
  system.add_action("A17", {}, {"D5"}, 10);
  StubProcess server, handheld, laptop;
  system.attach_process(kServerProcess, server, 0);
  system.attach_process(kHandheldProcess, handheld, 1);
  system.attach_process(kLaptopProcess, laptop, 1);
  system.finalize();
  EXPECT_EQ(system.shard_count(), 1U);

  system.set_current_configuration(paper_source(system.registry()));
  const auto result = system.adapt_and_wait(paper_target(system.registry()));
  EXPECT_TRUE(result.success);
  ASSERT_EQ(result.shard_results.size(), 1U);
  EXPECT_EQ(result.shard_results[0].steps_committed, 5U);
  EXPECT_EQ(result.final_config, paper_target(system.registry()));
}

TEST(Composite, LifecycleGuards) {
  CompositeAdaptationSystem system;
  system.registry().add("A", 0);
  system.registry().add("B", 0);
  system.add_invariant("one", "one(A, B)");
  system.add_action("swap", {"A"}, {"B"}, 10);
  StubProcess process;
  system.attach_process(0, process, 0);
  EXPECT_THROW(system.set_current_configuration({}), std::logic_error);
  system.finalize();
  EXPECT_THROW(system.finalize(), std::logic_error);
  EXPECT_THROW(system.add_invariant("late", "A"), std::logic_error);
  EXPECT_THROW(system.add_action("late", {"A"}, {}, 1), std::logic_error);
  EXPECT_THROW(system.attach_process(1, process, 0), std::logic_error);

  const auto a = config::Configuration::of(system.registry(), {"A"});
  const auto b = config::Configuration::of(system.registry(), {"B"});
  system.set_current_configuration(a);
  system.request_adaptation(b, nullptr);  // in flight (needs protocol rounds)
  EXPECT_THROW(system.request_adaptation(b, nullptr), std::logic_error);
  system.simulator().run(100'000);
  EXPECT_EQ(system.current_configuration(), b);
}

TEST(Composite, ZeroSetsFinalizesAndCompletesRequests) {
  // No components at all: the tree degenerates to a lone root over zero
  // lanes, and a request completes through an empty epoch.
  CompositeAdaptationSystem system;
  system.finalize();
  EXPECT_EQ(system.shard_count(), 0U);
  EXPECT_EQ(system.lane_count(), 0U);
  EXPECT_EQ(system.coordinator_count(), 1U);
  EXPECT_EQ(system.tree_depth(), 1U);
  system.set_current_configuration({});
  const auto result = system.adapt_and_wait({});
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.shard_results.empty());
  EXPECT_EQ(result.orphaned, 0U);
}

TEST(Composite, SingleSetCollapsesToLoneRootCoordinator) {
  // One collaborative set: no interior levels, no coordinator links — the
  // root IS the leaf and drives the single lane directly.
  ClusterFixture fixture(1);
  EXPECT_EQ(fixture.system.coordinator_count(), 1U);
  EXPECT_EQ(fixture.system.tree_depth(), 1U);
  EXPECT_TRUE(fixture.system.coordinator_links().empty());
  EXPECT_EQ(&fixture.system.root_coordinator(), &fixture.system.coordinator(0));
  fixture.system.set_current_configuration(fixture.all_x());
  const auto result = fixture.system.adapt_and_wait(fixture.all_y());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.epoch, 1U);
}

TEST(Composite, TopologyShapesTheCoordinatorTree) {
  CompositeConfig config;
  config.topology.lanes_per_leaf = 1;  // one leaf per lane
  config.topology.fanout = 2;
  ClusterFixture fixture(4, config);
  // 4 lanes -> 4 leaves -> 2 interior -> 1 root.
  EXPECT_EQ(fixture.system.coordinator_count(), 7U);
  EXPECT_EQ(fixture.system.tree_depth(), 3U);
  EXPECT_EQ(fixture.system.coordinator_links().size(), 6U);
  fixture.system.set_current_configuration(fixture.all_x());
  const auto result = fixture.system.adapt_and_wait(fixture.all_y());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.shard_results.size(), 4U);
  EXPECT_EQ(fixture.system.current_configuration(), fixture.all_y());
}

TEST(Composite, SameSeedRunsAreBitIdentical) {
  // Lane serialization and epoch batching are deterministic: two systems
  // built identically over the same seed produce the same timeline, epoch,
  // and per-shard outcomes.
  const auto run = [] {
    CompositeConfig config;
    config.seed = 7;
    config.topology.lanes_per_leaf = 2;
    config.topology.fanout = 2;
    ClusterFixture fixture(6, config);
    fixture.system.set_current_configuration(fixture.all_x());
    return fixture.system.adapt_and_wait(fixture.all_y());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.started, b.started);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.final_config, b.final_config);
  ASSERT_EQ(a.shard_results.size(), b.shard_results.size());
  for (std::size_t i = 0; i < a.shard_results.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].shard, b.outcomes[i].shard);
    EXPECT_EQ(a.shard_results[i].outcome, b.shard_results[i].outcome);
    EXPECT_EQ(a.shard_results[i].started, b.shard_results[i].started);
    EXPECT_EQ(a.shard_results[i].finished, b.shard_results[i].finished);
  }
}

TEST(Composite, TreeTraceConformsOverCoordinatorAndManagerVocabularies) {
  CompositeConfig config;
  config.topology.lanes_per_leaf = 1;
  config.topology.fanout = 2;
  ClusterFixture fixture(4, config);
  fixture.system.network().set_tracing(true);
  fixture.system.set_current_configuration(fixture.all_x());
  const auto result = fixture.system.adapt_and_wait(fixture.all_y());
  EXPECT_TRUE(result.success);
  const auto violations =
      proto::check_trace(fixture.system.network().trace(), fixture.system.manager_nodes());
  for (const auto& v : violations) ADD_FAILURE() << v.time << ": " << v.description;
}

TEST(Composite, OutOfEpochCommitIsCaughtByTheConformanceGate) {
  // The seeded coordinator bug: from the second epoch on the root announces a
  // stale epoch number. Children absorb the "duplicate", their shards orphan
  // at the commit timeout, and the delivered trace shows one epoch committed
  // twice with different targets — which the checker must flag.
  CompositeConfig config;
  config.topology.lanes_per_leaf = 1;
  config.topology.fanout = 2;
  config.topology.commit_timeout = sim::ms(100);  // keep the orphan path quick
  ClusterFixture fixture(2, config);
  fixture.system.network().set_tracing(true);
  fixture.system.root_coordinator().inject_fault(proto::CoordinatorFault::CommitOutOfEpoch);
  fixture.system.set_current_configuration(fixture.all_x());

  const auto first = fixture.system.adapt_and_wait(fixture.all_y());
  EXPECT_TRUE(first.success);  // epoch 1 is announced honestly
  const auto second = fixture.system.adapt_and_wait(fixture.all_x());
  EXPECT_FALSE(second.success);  // children dedup the stale commit
  EXPECT_EQ(second.orphaned, second.outcomes.size());

  const auto violations =
      proto::check_trace(fixture.system.network().trace(), fixture.system.manager_nodes());
  ASSERT_FALSE(violations.empty()) << "seeded out-of-epoch commit was not caught";
  bool flagged = false;
  for (const auto& violation : violations) {
    flagged = flagged ||
              violation.description.find("out-of-epoch commit") != std::string::npos;
  }
  EXPECT_TRUE(flagged) << "violations did not name the out-of-epoch commit";
}

}  // namespace
}  // namespace sa::core
