// Replay fidelity of the explorer's virtual world: driving the Model with the
// deterministic simulator's scheduling policy must reproduce, transition for
// transition, what the real SimRuntime drivers do on the same scenario — the
// model checker and the runtime are exploring the same protocol.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "check/model.hpp"
#include "check/scenario.hpp"
#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "obs/event.hpp"
#include "obs/trace_recorder.hpp"
#include "proto/adaptable_process.hpp"

namespace sa::check {
namespace {

struct NullProcess : proto::AdaptableProcess {
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override { return true; }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override {}
};

/// Runs the paper request on the real SimRuntime (zero jitter, so message
/// latency matches the model's fixed virtual latency) and returns the
/// Fig. 1 / Fig. 2 transitions from the trace recorder.
std::vector<obs::Event> sim_runtime_transitions() {
  core::SystemConfig config;
  config.control_channel.jitter = 0;
  core::SafeAdaptationSystem system(config);
  core::configure_paper_system(system);
  NullProcess server, handheld, laptop;
  system.attach_process(core::kServerProcess, server, /*stage=*/0);
  system.attach_process(core::kHandheldProcess, handheld, /*stage=*/1);
  system.attach_process(core::kLaptopProcess, laptop, /*stage=*/1);
  system.tracer().set_enabled(true);
  system.finalize();
  system.set_current_configuration(core::paper_source(system.registry()));

  const proto::AdaptationResult result =
      system.adapt_and_wait(core::paper_target(system.registry()));
  EXPECT_EQ(result.outcome, proto::AdaptationOutcome::Success);

  std::vector<obs::Event> transitions;
  for (const obs::Event& event : system.tracer().events()) {
    if (event.kind == obs::EventKind::ManagerPhase || event.kind == obs::EventKind::AgentState) {
      transitions.push_back(event);
    }
  }
  return transitions;
}

/// What a transition says independently of where it was recorded: kind,
/// track, from -> to and step coordinates (not time, seq, or the span the
/// manager's node id derives).
std::vector<std::string> described(const std::vector<obs::Event>& events) {
  std::vector<std::string> lines;
  for (const obs::Event& e : events) {
    lines.push_back(std::string(obs::to_string(e.kind)) + " track " + std::to_string(e.track) +
                    " " + e.detail + "->" + e.name + " r" + std::to_string(e.coords.request) +
                    ".p" + std::to_string(e.coords.plan) + ".s" +
                    std::to_string(e.coords.step) + ".a" + std::to_string(e.coords.attempt));
  }
  return lines;
}

/// Drains the model under the simulator policy (earliest due event first,
/// creation order on ties) and returns the schedule it took.
std::vector<Choice> drain_sim_policy(Model& model) {
  std::vector<Choice> schedule;
  while (const auto choice = model.sim_choice()) {
    EXPECT_TRUE(model.apply(*choice));
    schedule.push_back(*choice);
    EXPECT_LT(schedule.size(), 100'000U);
  }
  return schedule;
}

TEST(CheckReplay, SimPolicyMatchesSimRuntimeTransitions) {
  const Scenario scenario = make_paper_check_scenario();
  Model model = make_model(scenario, ExploreOptions{});
  drain_sim_policy(model);
  model.finalize();
  EXPECT_TRUE(model.violations().empty());
  ASSERT_NE(model.outcome(), nullptr);
  EXPECT_EQ(model.outcome()->outcome, proto::AdaptationOutcome::Success);

  const std::vector<std::string> expected = described(sim_runtime_transitions());
  const std::vector<std::string> actual = described(model.transitions());
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "transition " << i << " diverged";
  }
}

TEST(CheckReplay, SimPolicyScheduleRoundTripsThroughJson) {
  const Scenario scenario = make_paper_check_scenario();
  Model model = make_model(scenario, ExploreOptions{});
  const std::vector<Choice> schedule = drain_sim_policy(model);
  model.finalize();

  ScheduleFile file;
  file.scenario = scenario.name;
  file.schedule = schedule;
  const ScheduleFile parsed = schedule_from_json(to_json(file));
  EXPECT_EQ(parsed.schedule, schedule);

  // Replaying the serialized schedule on a fresh model reproduces the exact
  // run: same outcome, same transition sequence, still violation-free.
  const Scenario fresh = make_scenario(parsed.scenario);
  const ReplayResult replayed = replay(fresh, parsed.options, parsed.schedule);
  EXPECT_TRUE(replayed.schedule_valid);
  EXPECT_TRUE(replayed.violations.empty());
  ASSERT_TRUE(replayed.outcome.has_value());
  EXPECT_EQ(replayed.outcome->outcome, proto::AdaptationOutcome::Success);
  EXPECT_EQ(described(replayed.transitions), described(model.transitions()));
}

TEST(CheckReplay, StaleScheduleIsRejectedNotMisapplied) {
  const Scenario scenario = make_tiny_scenario();
  // A schedule referencing a seq that never existed must flag divergence.
  const ReplayResult replayed =
      replay(scenario, ExploreOptions{}, {Choice{Choice::Kind::Deliver, 999}});
  EXPECT_FALSE(replayed.schedule_valid);
}

}  // namespace
}  // namespace sa::check
