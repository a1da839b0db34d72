// Experiment F1/F2 — exercises the realization-phase protocol (the agent and
// manager state machines of Figures 1 and 2) end to end on the simulator and
// reports, per MAP step, the virtual-time duration and the blocking each
// involved process experienced, plus the control-message count.
//
// Expected shape: every step completes in a few milliseconds of virtual time
// (control-channel round trips + pre/in/post action durations), blocking only
// the processes the step's action touches.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "util/log.hpp"

#include <cstdio>
#include <map>
#include <optional>

#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "sim/network.hpp"

namespace {

using namespace sa;

struct Harness {
  core::SafeAdaptationSystem system;
  std::map<config::ProcessId, proto::ObedientProcess> processes;

  explicit Harness(core::SystemConfig config = {}) : system(config) {
    core::configure_paper_system(system);
    for (const auto& [process, stage] : core::paper_stages()) {
      system.attach_process(process, processes[process], stage);
    }
    system.finalize();
    system.set_current_configuration(core::paper_source(system.registry()));
  }
};

void print_protocol_trace() {
  Harness harness;
  harness.system.network().set_tracing(true);
  const auto result = harness.system.adapt_and_wait(core::paper_target(harness.system.registry()));

  std::printf("=== Realization phase (Figures 1 & 2 protocol) ===\n");
  std::printf("outcome: %s, steps committed: %zu\n",
              std::string(proto::to_string(result.outcome)).c_str(), result.steps_committed);
  std::printf("%-6s %-8s %-14s %-14s\n", "step", "action", "started (ms)", "duration (ms)");
  for (const auto& record : harness.system.manager().step_log()) {
    std::printf("%-6u %-8s %-14.2f %-14.2f\n", record.ref.step_index,
                record.action_name.c_str(), record.started / 1000.0,
                (record.finished - record.started) / 1000.0);
  }

  std::size_t control_messages = 0;
  for (const auto& entry : harness.system.network().trace()) {
    if (entry.delivered) ++control_messages;
  }
  std::printf("control messages delivered: %zu (5 steps x reset/reset done/adapt done/"
              "resume/resume done = 25, plus duplicate resume-done re-acks from the "
              "sole-participant proactive-resume optimization)\n",
              control_messages);
  std::printf("total blocked time reported by agents: %.2f ms\n",
              harness.system.manager().total_blocked_reported() / 1000.0);
  std::printf("total adaptation wall (virtual) time: %.2f ms\n\n",
              (result.finished - result.started) / 1000.0);
}

void BM_FullAdaptationProtocol(benchmark::State& state) {
  for (auto _ : state) {
    Harness harness;
    const auto result =
        harness.system.adapt_and_wait(core::paper_target(harness.system.registry()));
    if (result.outcome != proto::AdaptationOutcome::Success) state.SkipWithError("failed");
    benchmark::DoNotOptimize(result.steps_committed);
  }
}
BENCHMARK(BM_FullAdaptationProtocol);

void BM_SingleStepAdaptation(benchmark::State& state) {
  for (auto _ : state) {
    Harness harness;
    // A2 only: {D4,D1,E1} -> {D4,D2,E1}.
    const auto to_d2 =
        config::Configuration::of(harness.system.registry(), {"D4", "D2", "E1"});
    benchmark::DoNotOptimize(harness.system.adapt_and_wait(to_d2));
  }
}
BENCHMARK(BM_SingleStepAdaptation);

void BM_AdaptationUnderControlLoss(benchmark::State& state) {
  const double loss = static_cast<double>(state.range(0)) / 100.0;
  std::size_t retries = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    core::SystemConfig config;
    config.seed = 1000 + runs;
    config.control_channel.loss_probability = loss;
    config.manager.message_retries = 8;
    Harness harness(config);
    const auto result =
        harness.system.adapt_and_wait(core::paper_target(harness.system.registry()));
    retries += result.message_retries;
    ++runs;
    benchmark::DoNotOptimize(result);
  }
  state.counters["retries/run"] =
      benchmark::Counter(static_cast<double>(retries) / static_cast<double>(runs));
}
BENCHMARK(BM_AdaptationUnderControlLoss)->Arg(0)->Arg(10)->Arg(20);

// Guards the disabled-logging fast path: a record below the global level must
// not copy the component string or construct a stringstream, so protocol hot
// paths can keep SA_DEBUG statements without paying for them. Expect a few ns
// per statement; a regression to ~100ns means the lazy path broke.
void BM_DisabledLogging(benchmark::State& state) {
  util::set_log_level(util::LogLevel::Off);
  std::uint64_t x = 0;
  for (auto _ : state) {
    SA_DEBUG("bench-component-with-a-longer-name") << "value=" << x << " and more text " << 3.14;
    benchmark::DoNotOptimize(x++);
  }
}
BENCHMARK(BM_DisabledLogging);

}  // namespace

int main(int argc, char** argv) {
  sa::util::set_log_level(sa::util::LogLevel::Off);
  print_protocol_trace();
  return sa::benchio::run_and_report(argc, argv, "protocol");
}
