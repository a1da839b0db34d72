// Experiment X2 — §4.4 failure handling: loss-of-message and fail-to-reset
// failures injected at increasing severity, reporting how the manager's
// strategy chain (retransmit -> rollback -> retry -> alternate path -> return
// to source -> user) resolves each run and at what cost.
//
// Expected shape: retransmissions absorb moderate control-channel loss with
// only elapsed-time cost; a transiently stuck process costs one rollback and
// a retry; a permanently stuck process ends in a non-Success outcome with the
// system parked at a safe configuration.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "util/log.hpp"

#include <cstdio>
#include <map>
#include <optional>

#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "inject/faulty_runtime.hpp"
#include "runtime/sim_runtime.hpp"

namespace {

using namespace sa;

/// The paper system on the simulator behind the fault decorators.
struct Harness {
  runtime::SimRuntime sim;
  inject::FaultyRuntime faulty;
  core::SafeAdaptationSystem system;
  std::map<config::ProcessId, proto::ObedientProcess> processes;

  explicit Harness(core::SystemConfig config = {})
      : sim(config.seed), faulty(sim, config.seed), system(faulty, config) {
    core::configure_paper_system(system);
    for (const auto& [process, stage] : core::paper_stages()) {
      system.attach_process(process, processes[process], stage);
    }
    system.finalize();
    system.set_current_configuration(core::paper_source(system.registry()));
  }
};

void print_loss_sweep() {
  std::printf("=== Loss-of-message failures: control-channel loss sweep ===\n");
  std::printf("%-10s %-10s %-12s %-14s %-16s %s\n", "loss %", "runs", "successes",
              "retries/run", "rollbacks/run", "mean duration (ms)");
  for (const int loss_percent : {0, 5, 10, 20, 30, 40}) {
    const int runs = 20;
    int successes = 0;
    std::uint64_t retries = 0, rollbacks = 0;
    double total_ms = 0;
    for (int run = 0; run < runs; ++run) {
      core::SystemConfig config;
      config.seed = 7000 + static_cast<std::uint64_t>(loss_percent) * 100 + run;
      config.control_channel.loss_probability = loss_percent / 100.0;
      config.manager.message_retries = 5;
      Harness harness(config);
      const auto result =
          harness.system.adapt_and_wait(core::paper_target(harness.system.registry()));
      successes += result.outcome == proto::AdaptationOutcome::Success;
      retries += result.message_retries;
      rollbacks += result.step_failures;
      total_ms += (result.finished - result.started) / 1000.0;
    }
    std::printf("%-10d %-10d %-12d %-14.2f %-16.2f %.2f\n", loss_percent, runs, successes,
                static_cast<double>(retries) / runs, static_cast<double>(rollbacks) / runs,
                total_ms / runs);
  }
  std::printf("expected: success holds through moderate loss at the price of "
              "retransmissions and elapsed time.\n\n");
}

void print_fail_to_reset_outcomes() {
  std::printf("=== Fail-to-reset failures ===\n");

  {  // transient: stuck until after the first rollback, then healthy
    Harness harness;
    harness.system.agent(core::kHandheldProcess).set_fail_to_reset(true);
    std::optional<proto::AdaptationResult> result;
    harness.system.request_adaptation(
        core::paper_target(harness.system.registry()),
        [&result](const proto::AdaptationResult& r) { result = r; });
    std::size_t events = 0;
    while (!result && events < 1'000'000 && harness.sim.simulator().step()) {
      ++events;
      if (!harness.system.manager().step_log().empty() &&
          harness.system.manager().step_log().front().rolled_back) {
        harness.system.agent(core::kHandheldProcess).set_fail_to_reset(false);
      }
    }
    if (result) {
      std::printf("transient stuck process: outcome=%s, step failures=%zu, duration=%.1f ms\n",
                  std::string(proto::to_string(result->outcome)).c_str(),
                  result->step_failures, (result->finished - result->started) / 1000.0);
    }
  }

  {  // permanent: never reaches a safe state
    Harness harness;
    harness.system.agent(core::kHandheldProcess).set_fail_to_reset(true);
    const auto result =
        harness.system.adapt_and_wait(core::paper_target(harness.system.registry()), 5'000'000);
    const bool parked_safe = harness.system.invariants().satisfied(result.final_config);
    std::printf("permanent stuck process: outcome=%s, plans tried=%zu, parked at %s (%s)\n",
                std::string(proto::to_string(result.outcome)).c_str(), result.plans_tried,
                result.final_config.describe(harness.system.registry()).c_str(),
                parked_safe ? "safe" : "UNSAFE");
    std::printf("expected: non-success outcome, parked configuration safe -> %s\n",
                result.outcome != proto::AdaptationOutcome::Success && parked_safe ? "PASS"
                                                                                   : "FAIL");
  }

  {  // unreachable agent from the start
    Harness harness;
    harness.faulty.faulty_transport().partition_pair(
        harness.system.manager_node(), harness.system.agent_node(core::kHandheldProcess), true);
    const auto result =
        harness.system.adapt_and_wait(core::paper_target(harness.system.registry()), 5'000'000);
    std::printf("partitioned agent: outcome=%s\n\n",
                std::string(proto::to_string(result.outcome)).c_str());
  }
}

void BM_AdaptationWithTransientFailure(benchmark::State& state) {
  for (auto _ : state) {
    Harness harness;
    harness.system.agent(core::kHandheldProcess).set_fail_to_reset(true);
    std::optional<proto::AdaptationResult> result;
    harness.system.request_adaptation(
        core::paper_target(harness.system.registry()),
        [&result](const proto::AdaptationResult& r) { result = r; });
    std::size_t events = 0;
    while (!result && events < 1'000'000 && harness.sim.simulator().step()) {
      ++events;
      if (!harness.system.manager().step_log().empty() &&
          harness.system.manager().step_log().front().rolled_back) {
        harness.system.agent(core::kHandheldProcess).set_fail_to_reset(false);
      }
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AdaptationWithTransientFailure)->Unit(benchmark::kMillisecond);

void BM_ExhaustedStrategyChain(benchmark::State& state) {
  for (auto _ : state) {
    Harness harness;
    harness.system.agent(core::kHandheldProcess).set_fail_to_reset(true);
    benchmark::DoNotOptimize(
        harness.system.adapt_and_wait(core::paper_target(harness.system.registry()), 5'000'000));
  }
}
BENCHMARK(BM_ExhaustedStrategyChain)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  sa::util::set_log_level(sa::util::LogLevel::Off);
  print_loss_sweep();
  print_fail_to_reset_outcomes();
  return sa::benchio::run_and_report(argc, argv, "failure_recovery");
}
