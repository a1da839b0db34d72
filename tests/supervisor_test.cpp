// Multi-process supervisor: child lifecycle primitives (spawn / reap /
// kill -9 / terminate) and the distributed §4.4 recovery paths driven
// through real OS processes:
//
//   * a network partition opened while agents sit in the blocked window must
//     end in a legal §4.4 outcome (ride-out via retries, or rollback to the
//     source) with every agent back in Running;
//   * kill -9 of an agent mid-adaptation followed by re-exec must recover
//     from the on-disk journal (recoveries >= 1) and still terminate legally;
//   * children are reaped exactly once (no zombies), nonzero exits and
//     terminating signals are propagated, wait_exit times out cleanly.
#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/supervisor.hpp"
#include "inject/fault_plan.hpp"

namespace sa::core {
namespace {

// Paper §5 configurations: source {D4, D1, E1} = 0b0100101, target
// {D5, D3, E2} = 0b1010010 (MSB = highest ComponentId).
constexpr std::uint64_t kSourceBits = 0b0100101;
constexpr std::uint64_t kTargetBits = 0b1010010;

const std::vector<std::string> kLegalOutcomes = {
    "success", "no-path-found", "rolled-back-to-source", "user-intervention-required",
    "stalled-after-resume"};

bool legal_outcome(const std::string& outcome) {
  return std::find(kLegalOutcomes.begin(), kLegalOutcomes.end(), outcome) !=
         kLegalOutcomes.end();
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : "; ") + p;
  return out;
}

std::string log_path(const char* name) {
  return ::testing::TempDir() + "/" + name + "." + std::to_string(::getpid()) + ".log";
}

// --- child lifecycle primitives ----------------------------------------------

TEST(SupervisorPrimitives, PropagatesNonzeroExitCodes) {
  Supervisor supervisor;
  const pid_t pid = supervisor.spawn("/bin/sh", {"-c", "exit 3"}, "failing-child",
                                     log_path("failing-child"));
  ASSERT_GT(pid, 0);
  const Supervisor::Exit exit = supervisor.wait_exit(pid, runtime::seconds(10));
  ASSERT_EQ(exit.pid, pid) << "wait_exit timed out";
  EXPECT_EQ(exit.name, "failing-child");
  EXPECT_FALSE(exit.signaled);
  EXPECT_EQ(exit.code, 3);
  EXPECT_EQ(supervisor.live_count(), 0u);
  EXPECT_FALSE(supervisor.alive(pid));
}

TEST(SupervisorPrimitives, ExecFailureSurfacesAs127) {
  Supervisor supervisor;
  const pid_t pid = supervisor.spawn("/no/such/binary", {}, "enoent",
                                     log_path("enoent"));
  ASSERT_GT(pid, 0);  // the fork succeeds; the exec inside the child fails
  const Supervisor::Exit exit = supervisor.wait_exit(pid, runtime::seconds(10));
  ASSERT_EQ(exit.pid, pid);
  EXPECT_FALSE(exit.signaled);
  EXPECT_EQ(exit.code, 127);
}

TEST(SupervisorPrimitives, Kill9ReportsTerminatingSignal) {
  Supervisor supervisor;
  const pid_t pid =
      supervisor.spawn("/bin/sh", {"-c", "sleep 30"}, "victim", log_path("victim"));
  ASSERT_GT(pid, 0);
  EXPECT_TRUE(supervisor.alive(pid));
  EXPECT_TRUE(supervisor.kill9(pid));
  const Supervisor::Exit exit = supervisor.wait_exit(pid, runtime::seconds(10));
  ASSERT_EQ(exit.pid, pid);
  EXPECT_TRUE(exit.signaled);
  EXPECT_EQ(exit.code, SIGKILL);
  // Killing an already-reaped pid is a no-op, not a stray signal.
  EXPECT_FALSE(supervisor.kill9(pid));
}

TEST(SupervisorPrimitives, PollExitsReapsEveryChildExactlyOnce) {
  Supervisor supervisor;
  constexpr int kChildren = 5;
  for (int i = 0; i < kChildren; ++i) {
    ASSERT_GT(supervisor.spawn("/bin/sh", {"-c", "exit 0"},
                               "child-" + std::to_string(i), log_path("child")),
              0);
  }
  std::vector<Supervisor::Exit> exits;
  // Bounded by time, not by a count of polls: on a loaded host five shells
  // can take longer to exit than a few thousand back-to-back polls.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (exits.size() < kChildren && std::chrono::steady_clock::now() < deadline) {
    for (Supervisor::Exit& exit : supervisor.poll_exits()) exits.push_back(exit);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(exits.size(), static_cast<std::size_t>(kChildren));
  EXPECT_EQ(supervisor.live_count(), 0u);  // no zombies left behind
  EXPECT_TRUE(supervisor.poll_exits().empty());
}

TEST(SupervisorPrimitives, WaitExitTimesOutOnLivingChild) {
  Supervisor supervisor;
  const pid_t pid =
      supervisor.spawn("/bin/sh", {"-c", "sleep 30"}, "lingerer", log_path("lingerer"));
  ASSERT_GT(pid, 0);
  const Supervisor::Exit exit = supervisor.wait_exit(pid, runtime::ms(50));
  EXPECT_EQ(exit.pid, -1);  // timeout sentinel; child untouched
  EXPECT_TRUE(supervisor.alive(pid));

  const std::vector<Supervisor::Exit> exits = supervisor.terminate_all(runtime::seconds(5));
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_EQ(exits[0].pid, pid);
  EXPECT_TRUE(exits[0].signaled);  // sleep dies to SIGTERM (or SIGKILL fallback)
  EXPECT_EQ(supervisor.live_count(), 0u);
}

// --- distributed §4.4 recovery ----------------------------------------------

DistributedOptions base_options(std::uint64_t seed) {
  DistributedOptions options;
  options.seed = seed;
  options.sa_node = SA_NODE_PATH;
  options.max_wait = runtime::seconds(30);
  return options;
}

TEST(SupervisorDistributed, PartitionDuringBlockedWindowEndsLegally) {
  // Cut the handheld agent (process 1 -> node 2) off the network across the
  // window where the paper scenario has it blocked mid-step. The manager must
  // either ride it out on retries or roll back per §4.4 — never wedge, never
  // rest outside the legal outcome set.
  inject::FaultPlan plan;
  inject::FaultEvent cut;
  cut.kind = inject::FaultKind::PartitionNode;
  cut.start = runtime::ms(20);
  cut.end = runtime::ms(250);
  cut.process = 1;
  plan.events.push_back(cut);

  DistributedOptions options = base_options(11);
  options.plan_json = inject::to_json(plan);
  const DistributedReport report = run_distributed_paper(options);

  ASSERT_TRUE(report.infra_ok) << join(report.infra_errors);
  ASSERT_TRUE(legal_outcome(report.outcome)) << "outcome: " << report.outcome;
  if (report.outcome == "success") {
    EXPECT_EQ(report.final_config_bits, kTargetBits);
  } else if (report.outcome == "rolled-back-to-source" ||
             report.outcome == "no-path-found") {
    EXPECT_EQ(report.final_config_bits, kSourceBits);
  }
  ASSERT_EQ(report.agent_states.size(), 3u);
  if (report.outcome != "stalled-after-resume") {
    for (const auto& [name, state] : report.agent_states) {
      EXPECT_EQ(state, "running") << name;
    }
  }
}

TEST(SupervisorDistributed, Kill9MidAdaptationRecoversFromJournal) {
  // Real crash fault: SIGKILL the handheld agent 30 ms in (mid-step for the
  // paper timings), re-exec it at 600 ms. The respawned process must restore
  // its journal (§4.4 crash recovery), rejoin, and the run must terminate in
  // a legal outcome with the recovery visible in its state file.
  DistributedOptions options = base_options(42);
  options.crashes.push_back({runtime::ms(30), runtime::ms(600), "handheld-agent"});
  const DistributedReport report = run_distributed_paper(options);

  ASSERT_TRUE(report.infra_ok) << join(report.infra_errors);
  EXPECT_EQ(report.kills, 1u);
  EXPECT_EQ(report.respawns, 1u);
  ASSERT_TRUE(legal_outcome(report.outcome)) << "outcome: " << report.outcome;
  const auto recoveries = report.agent_recoveries.find("handheld-agent");
  ASSERT_NE(recoveries, report.agent_recoveries.end());
  EXPECT_GE(recoveries->second, 1u);
  if (report.outcome == "success") {
    EXPECT_EQ(report.final_config_bits, kTargetBits);
    for (const auto& [name, state] : report.agent_states) {
      EXPECT_EQ(state, "running") << name;
    }
  }
}

}  // namespace
}  // namespace sa::core
