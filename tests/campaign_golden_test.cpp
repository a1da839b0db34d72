// Golden digests of the fault-injection campaign's verdicts.
//
// Every case runs campaign entry points on a fixed seed range (or a fixed
// hand-written plan) and folds each RunResult — outcome, every violation
// string and the flight-recorder trace_tail — into one FNV-1a digest. The
// digests pin the simulator's fault behaviour: where a window edge fires,
// which message a partition drops, the decorator's Rng draw order, and the
// oracles' exact violation text. Any change to the fault layer, the plan
// arming or the oracles that moves a single byte of any verdict shows up
// here as a changed digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <ostream>
#include <string>

#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "inject/campaign.hpp"
#include "inject/faulty_runtime.hpp"
#include "runtime/sim_runtime.hpp"

namespace sa::inject {
namespace {

struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ULL;

  void add(const std::string& text) {
    for (const char c : text) {
      value ^= static_cast<unsigned char>(c);
      value *= 0x100000001b3ULL;
    }
    value ^= 0xff;  // field separator
    value *= 0x100000001b3ULL;
  }

  void add(const RunResult& result) {
    add(result.outcome);
    for (const std::string& v : result.violations) add(v);
    add(result.trace_tail);
  }

  std::string hex() const {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
    return buf;
  }
};

/// Digest of run_one over seeds [begin, end) with each seed's generated plan.
std::string seed_range_digest(const std::string& scenario, std::uint64_t begin,
                              std::uint64_t end,
                              proto::ManagerFault fault = proto::ManagerFault::None) {
  CampaignOptions options;
  options.scenario = scenario;
  options.fault = fault;
  Digest digest;
  for (std::uint64_t seed = begin; seed < end; ++seed) {
    digest.add(run_one(scenario, seed, plan_for_seed(scenario, seed), options));
  }
  return digest.hex();
}

// Clean runs leave an empty trace tail, so the paper scenarios are also
// digested under the mutation gates, whose oracle violations pin the
// violation text and the flight-recorder tail. (Every video and fleet step
// involves one process, so resume-early never fires there.)
constexpr auto kResumeEarly = proto::ManagerFault::ResumeBeforeLastAdaptDone;

TEST(CampaignGolden, PaperSeedRange) {
  EXPECT_EQ(seed_range_digest("paper", 0, 64), "c88cfd97339a76bd");
  EXPECT_EQ(seed_range_digest("paper", 0, 64, kResumeEarly), "d603de0e3bbd5b00");
}

TEST(CampaignGolden, PaperCombinedSeedRange) {
  EXPECT_EQ(seed_range_digest("paper-combined", 0, 64), "9a4d172f5cbb8502");
  EXPECT_EQ(seed_range_digest("paper-combined", 0, 64, kResumeEarly), "fe843756926a7654");
  EXPECT_EQ(seed_range_digest("paper-combined", 0, 64, proto::ManagerFault::RollbackAfterResume),
            "de173751991b0636");
}

TEST(CampaignGolden, VideoSeedRange) {
  EXPECT_EQ(seed_range_digest("video", 0, 32), "2036d546317e735d");
}

TEST(CampaignGolden, FleetSeedRange) {
  EXPECT_EQ(seed_range_digest("fleet", 0, 64), "235fe02588955ddb");
}

// Paper runs per fault kind, each with a hand-written single-window plan, so
// every arming branch is pinned on its own (the mutated paper-combined run
// pins the timing of everything the window touched through its tail).
struct KindCase {
  const char* name;
  FaultEvent event;
  const char* digest;
};

void PrintTo(const KindCase& c, std::ostream* os) { *os << c.name; }

class CampaignGoldenKind : public ::testing::TestWithParam<KindCase> {};

TEST_P(CampaignGoldenKind, PaperSeedDigest) {
  const KindCase& c = GetParam();
  FaultPlan plan;
  plan.events.push_back(c.event);
  Digest digest;
  for (const std::uint64_t seed : {3u, 11u}) {
    CampaignOptions options;
    digest.add(run_one("paper", seed, plan, options));
    options.scenario = "paper-combined";
    options.fault = kResumeEarly;
    digest.add(run_one("paper-combined", seed, plan, options));
  }
  EXPECT_EQ(digest.hex(), c.digest) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CampaignGoldenKind,
    ::testing::Values(
        KindCase{"loss", {FaultKind::Loss, 0, runtime::ms(40), 0, 0.5, 1.0}, "80fbdbc07ba29ca1"},
        KindCase{"duplicate",
                 {FaultKind::Duplicate, 0, runtime::ms(60), 0, 0.7, 1.0},
                 "4cb384437e4041a8"},
        KindCase{"partition_node",
                 {FaultKind::PartitionNode, runtime::ms(5), runtime::ms(400), 1, 0.0, 1.0},
                 "af0b273bbaaa556d"},
        KindCase{"partition_pair",
                 {FaultKind::PartitionPair, runtime::ms(2), runtime::seconds(3), 2, 0.0, 1.0},
                 "f81542853ef6f175"},
        KindCase{"crash",
                 {FaultKind::Crash, runtime::ms(3), runtime::ms(200), 1, 0.0, 1.0},
                 "f16b23a24a136430"},
        KindCase{"fail_to_reset",
                 {FaultKind::FailToReset, 0, runtime::seconds(5), 1, 0.0, 1.0},
                 "63e070ca93378f0f"},
        KindCase{"timer_skew",
                 {FaultKind::TimerSkew, 0, runtime::ms(80), 0, 0.0, 3.0},
                 "335a0def74dfd34a"}),
    [](const ::testing::TestParamInfo<KindCase>& info) { return std::string(info.param.name); });

// bench_failure_recovery's "partitioned agent" row: the hand-held agent is cut
// off from the manager before the request starts.
struct NullProcess : proto::AdaptableProcess {
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override { return true; }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override {}
};

TEST(CampaignGolden, PartitionedAgentFailureRecovery) {
  const core::SystemConfig config;
  runtime::SimRuntime sim(config.seed);
  FaultyRuntime faults(sim, config.seed);
  core::SafeAdaptationSystem system(faults, config);
  NullProcess server, handheld, laptop;
  core::configure_paper_system(system);
  system.attach_process(core::kServerProcess, server, 0);
  system.attach_process(core::kHandheldProcess, handheld, 1);
  system.attach_process(core::kLaptopProcess, laptop, 1);
  system.finalize();
  system.set_current_configuration(core::paper_source(system.registry()));
  faults.faulty_transport().partition_pair(system.manager_node(),
                                           system.agent_node(core::kHandheldProcess), true);
  const proto::AdaptationResult result =
      system.adapt_and_wait(core::paper_target(system.registry()), 5'000'000);

  Digest digest;
  digest.add(std::string(proto::to_string(result.outcome)));
  digest.add(result.final_config.describe(system.registry()));
  digest.add(std::to_string(result.started) + "/" + std::to_string(result.finished));
  digest.add(std::to_string(result.plans_tried) + "/" + std::to_string(result.step_failures) +
             "/" + std::to_string(result.message_retries) + "/" +
             std::to_string(result.steps_committed));
  for (const proto::StepRecord& record : system.manager().step_log()) {
    digest.add(record.action_name + (record.committed ? "+" : "-") +
               (record.rolled_back ? "r" : ""));
  }
  EXPECT_EQ(digest.hex(), "1c816e45e8ae380f");
}

}  // namespace
}  // namespace sa::inject
