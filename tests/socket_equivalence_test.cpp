// Cross-backend equivalence: the paper's §5 scenario must produce the SAME
// adaptation — same committed MAP actions, same final configuration, same
// outcome — whether it runs in-process on the deterministic SimRuntime or as
// four real OS processes over loopback sockets (sa_node under the
// supervisor). This is the distributed row of the conformance test matrix:
// the merged cross-process trace must also replay through the Figure 1/2
// automata with zero violations.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "core/paper_scenario.hpp"
#include "core/supervisor.hpp"
#include "core/system.hpp"
#include "proto/conformance.hpp"
#include "proto/manager.hpp"

namespace sa::core {
namespace {

struct StubProcess : proto::AdaptableProcess {
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override { return true; }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override {}
};

struct SimRun {
  proto::AdaptationOutcome outcome;
  std::uint64_t final_config_bits = 0;
  std::size_t steps_committed = 0;
  std::vector<std::string> committed_actions;
};

SimRun run_sim_paper() {
  SafeAdaptationSystem system;  // owns a deterministic SimRuntime
  configure_paper_system(system);
  StubProcess server, handheld, laptop;
  system.attach_process(kServerProcess, server, /*stage=*/0);
  system.attach_process(kHandheldProcess, handheld, /*stage=*/1);
  system.attach_process(kLaptopProcess, laptop, /*stage=*/1);
  system.finalize();
  system.set_current_configuration(paper_source(system.registry()));
  const auto result = system.adapt_and_wait(paper_target(system.registry()));

  SimRun run;
  run.outcome = result.outcome;
  run.final_config_bits = result.final_config.bits();
  run.steps_committed = result.steps_committed;
  for (const proto::StepRecord& record : system.manager().step_log()) {
    if (record.committed && !record.rolled_back) {
      run.committed_actions.push_back(record.action_name);
    }
  }
  return run;
}

std::string join(const std::vector<std::string>& parts) {
  return std::accumulate(parts.begin(), parts.end(), std::string(),
                         [](std::string acc, const std::string& p) {
                           return acc.empty() ? p : std::move(acc) + "; " + p;
                         });
}

TEST(SocketEquivalence, PaperScenarioMatchesSimBackend) {
  const SimRun sim = run_sim_paper();
  ASSERT_EQ(sim.outcome, proto::AdaptationOutcome::Success);
  ASSERT_EQ(sim.committed_actions,
            (std::vector<std::string>{"A2", "A17", "A1", "A16", "A4"}));

  DistributedOptions options;
  options.seed = 42;
  options.sa_node = SA_NODE_PATH;
  options.max_wait = runtime::seconds(30);
  const DistributedReport report = run_distributed_paper(options);

  ASSERT_TRUE(report.infra_ok) << join(report.infra_errors);
  EXPECT_EQ(report.outcome, "success");
  EXPECT_EQ(report.committed_actions, sim.committed_actions);
  EXPECT_EQ(report.final_config_bits, sim.final_config_bits);
  EXPECT_EQ(report.steps_committed, sim.steps_committed);

  // Every agent process ended in Running with no crash-recovery replays.
  ASSERT_EQ(report.agent_states.size(), 3u);
  for (const auto& [name, state] : report.agent_states) {
    EXPECT_EQ(state, "running") << name;
  }
  for (const auto& [name, recoveries] : report.agent_recoveries) {
    EXPECT_EQ(recoveries, 0u) << name;
  }
  EXPECT_EQ(report.kills, 0u);
  EXPECT_EQ(report.respawns, 0u);
}

TEST(SocketEquivalence, MergedDistributedTraceIsConformant) {
  DistributedOptions options;
  options.seed = 7;
  options.sa_node = SA_NODE_PATH;
  options.max_wait = runtime::seconds(30);
  const DistributedReport report = run_distributed_paper(options);
  ASSERT_TRUE(report.infra_ok) << join(report.infra_errors);
  ASSERT_EQ(report.outcome, "success");

  // The merged wall-clock trace covers the full adaptation: at minimum one
  // reset / adapt-done / resume round per committed step in each direction.
  ASSERT_GE(report.merged_trace.size(), 2 * report.steps_committed);

  const auto violations = proto::check_trace(report.merged_trace, {runtime::NodeId{0}});
  for (const auto& violation : violations) {
    ADD_FAILURE() << "conformance: " << violation.description;
  }
}

}  // namespace
}  // namespace sa::core
