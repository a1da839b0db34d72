// End-to-end properties of the sa_fuzz campaign engine: clean stacks survive
// generated fault plans, results are bit-identical for any worker count, a
// deliberately broken manager is caught by the oracles, and failing runs
// shrink to artifacts that replay to the same violations.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "inject/campaign.hpp"

namespace sa::inject {
namespace {

TEST(FuzzCampaign, PlanForSeedIsDeterministic) {
  const FaultPlan plan = plan_for_seed("paper", 17);
  EXPECT_EQ(plan, plan_for_seed("paper", 17));
  EXPECT_GE(plan.events.size(), 1u);
  // Neighbouring seeds land on different plans (the stream is well mixed).
  EXPECT_NE(plan, plan_for_seed("paper", 18));
}

TEST(FuzzCampaign, CleanStackSurvivesGeneratedPlans) {
  CampaignOptions options;
  options.scenario = "paper";
  options.seed_begin = 0;
  options.seed_end = 8;
  const CampaignSummary summary = run_campaign(options);
  EXPECT_EQ(summary.runs, 8u);
  EXPECT_TRUE(summary.failures.empty())
      << "oracle violation on a correct stack: " << summary.failures[0].violations[0];
}

TEST(FuzzCampaign, ResultsAreIdenticalForAnyThreadCount) {
  CampaignOptions options;
  options.scenario = "paper";
  options.seed_begin = 100;
  options.seed_end = 108;
  const CampaignSummary serial = run_campaign(options);
  options.threads = 4;
  const CampaignSummary parallel = run_campaign(options);
  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_EQ(serial.outcomes, parallel.outcomes);
  ASSERT_EQ(serial.failures.size(), parallel.failures.size());
  for (std::size_t i = 0; i < serial.failures.size(); ++i) {
    EXPECT_EQ(serial.failures[i].seed, parallel.failures[i].seed);
    EXPECT_EQ(serial.failures[i].plan, parallel.failures[i].plan);
    EXPECT_EQ(serial.failures[i].violations, parallel.failures[i].violations);
  }
}

TEST(FuzzCampaign, FleetScenarioSurvivesCoordinatorLinkFaults) {
  // The fleet scenario aims faults at coordinator tree links instead of
  // agents: partitions orphan subtrees, which must terminate as clean
  // per-shard rollbacks ("orphaned"), never wedge or break a disjoint shard.
  CampaignOptions options;
  options.scenario = "fleet";
  options.seed_begin = 0;
  options.seed_end = 6;
  const CampaignSummary summary = run_campaign(options);
  EXPECT_EQ(summary.runs, 6u);
  EXPECT_TRUE(summary.failures.empty())
      << "fleet oracle violation: " << summary.failures[0].violations[0];

  // And the campaign is thread-count independent, like every scenario.
  options.threads = 3;
  const CampaignSummary parallel = run_campaign(options);
  EXPECT_EQ(summary.outcomes, parallel.outcomes);
}

TEST(FuzzCampaign, MutatedManagerIsCaughtAndShrunkArtifactReplays) {
  // The resume-early mutation only bites when a step involves >= 2 agents,
  // hence the combined-action scenario (mirrors the model checker's pair gate).
  CampaignOptions options;
  options.scenario = "paper-combined";
  options.fault = check::fault_from_string("resume-early");
  options.seed_begin = 0;
  options.seed_end = 2;
  const CampaignSummary summary = run_campaign(options);
  ASSERT_FALSE(summary.failures.empty()) << "seeded protocol bug was not caught";
  const RunReport& failure = summary.failures.front();
  ASSERT_FALSE(failure.violations.empty());

  // The shrunk plan must still reproduce, and the JSON artifact must replay
  // to byte-identical violations (the --replay contract).
  FuzzArtifact artifact;
  artifact.scenario = options.scenario;
  artifact.seed = failure.seed;
  artifact.fault = options.fault;
  artifact.max_events = options.max_events;
  artifact.plan = failure.plan;
  artifact.violations = failure.violations;
  const FuzzArtifact parsed = artifact_from_json(to_json(artifact));
  EXPECT_EQ(parsed.scenario, artifact.scenario);
  EXPECT_EQ(parsed.seed, artifact.seed);
  EXPECT_EQ(parsed.fault, artifact.fault);
  EXPECT_EQ(parsed.max_events, artifact.max_events);
  EXPECT_EQ(parsed.plan, artifact.plan);
  EXPECT_EQ(parsed.violations, artifact.violations);

  CampaignOptions replay_options;
  replay_options.scenario = parsed.scenario;
  replay_options.fault = parsed.fault;
  replay_options.max_events = parsed.max_events;
  const RunResult replayed = run_one(parsed.scenario, parsed.seed, parsed.plan, replay_options);
  EXPECT_EQ(replayed.violations, parsed.violations)
      << "artifact replay diverged from the recorded run";
}

TEST(FuzzCampaign, ShrinkingKeepsTheViolationClass) {
  // Hand a deliberately bloated plan to the shrinker: a permanent crash of
  // the hand-held agent (which forces a non-success terminal outcome but no
  // violation on a correct stack) plus noise windows. With the resume-early
  // mutation armed the run fails, and shrinking must preserve failure while
  // never growing the plan.
  CampaignOptions options;
  options.scenario = "paper-combined";
  options.fault = check::fault_from_string("resume-early");
  const std::uint64_t seed = 0;
  FaultPlan plan;
  plan.events.push_back({FaultKind::Loss, 0, runtime::ms(50), 0, 0.2, 1.0});
  plan.events.push_back({FaultKind::TimerSkew, 0, runtime::ms(80), 0, 0.0, 1.5});
  plan.events.push_back({FaultKind::Duplicate, runtime::ms(10), runtime::ms(60), 0, 0.3, 1.0});
  const RunResult original = run_one(options.scenario, seed, plan, options);
  ASSERT_FALSE(original.violations.empty()) << "mutation should fail under this plan";

  const FaultPlan shrunk =
      shrink_plan(options.scenario, seed, plan, options, original.violations);
  EXPECT_LE(shrunk.events.size(), plan.events.size());
  const RunResult replayed = run_one(options.scenario, seed, shrunk, options);
  ASSERT_FALSE(replayed.violations.empty()) << "shrunk plan no longer reproduces";
  // Same violation class (prefix before ':') as one of the originals.
  const auto cls = [](const std::string& v) { return v.substr(0, v.find(':')); };
  bool matched = false;
  for (const std::string& v : replayed.violations) {
    for (const std::string& o : original.violations) {
      if (cls(v) == cls(o)) matched = true;
    }
  }
  EXPECT_TRUE(matched);
}

// Seeds span 64 bits and violation strings may carry control bytes: both
// survive the artifact's JSON exactly.
TEST(FuzzCampaign, ArtifactKeepsA64BitSeedAndControlBytes) {
  FuzzArtifact artifact;
  artifact.scenario = "paper";
  artifact.seed = 18446744073709551557ULL;  // 2^64 - 59: no double holds it
  artifact.violations = {"resume\x01" "before adapt done"};
  const FuzzArtifact parsed = artifact_from_json(to_json(artifact));
  EXPECT_EQ(parsed.seed, artifact.seed);
  EXPECT_EQ(parsed.violations, artifact.violations);
}

TEST(FuzzCampaign, ArtifactParserRejectsGarbage) {
  EXPECT_THROW(artifact_from_json("not json"), std::runtime_error);
  EXPECT_THROW(artifact_from_json("[]"), std::runtime_error);
  EXPECT_THROW(artifact_from_json("{\"seed\": 3}"), std::runtime_error);
}

}  // namespace
}  // namespace sa::inject
