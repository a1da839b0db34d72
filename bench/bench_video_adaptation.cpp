// Experiment E5 — the §5.2 walkthrough on the live video testbed: run the
// 64-bit -> 128-bit hardening on a streaming system and measure the packet
// delay each adaptation step induces, contrasting the MAP's single-component
// actions (~10 ms class) with the combined sender+receiver actions the paper
// prices at ~100 ms (A6-A9 "the server has to be blocked until the last
// packet processed by the encoder has been decoded by the decoder(s)").
//
// Expected shape (Table 2): pair actions cost roughly an order of magnitude
// more packet delay than single-component actions; the MAP avoids them.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "util/log.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "core/video_testbed.hpp"
#include "sim/network.hpp"

namespace {

using namespace sa;

sim::Time max_delay_of(const components::FilterChain& chain) {
  return chain.stats().max_delay;
}

void run_map_on_live_stream() {
  core::TestbedConfig config;
  core::VideoTestbed testbed(config);
  testbed.start_stream();
  testbed.run_for(sim::ms(300));

  std::optional<proto::AdaptationResult> result;
  testbed.system().request_adaptation(
      testbed.target(), [&result](const proto::AdaptationResult& r) { result = r; });
  testbed.run_for(sim::seconds(5));
  testbed.stop_stream();
  testbed.run_for(sim::seconds(1));

  std::printf("=== Section 5.2: safe adaptation of the live video stream ===\n");
  if (!result) {
    std::printf("adaptation did not terminate -> FAIL\n");
    return;
  }
  std::printf("outcome: %s; steps: %zu; virtual duration %.1f ms\n",
              std::string(proto::to_string(result->outcome)).c_str(), result->steps_committed,
              (result->finished - result->started) / 1000.0);
  std::printf("stream integrity: intact=%llu corrupted=%llu undecodable=%llu missing=%llu\n",
              static_cast<unsigned long long>(testbed.total_intact()),
              static_cast<unsigned long long>(testbed.total_corrupted()),
              static_cast<unsigned long long>(testbed.total_undecodable()),
              static_cast<unsigned long long>(
                  testbed.handheld().sink().missing(testbed.server().packets_emitted()) +
                  testbed.laptop().sink().missing(testbed.server().packets_emitted())));
  std::printf("max packet delay: server %.2f ms, hand-held %.2f ms, laptop %.2f ms\n",
              max_delay_of(testbed.server().chain()) / 1000.0,
              max_delay_of(testbed.handheld().chain()) / 1000.0,
              max_delay_of(testbed.laptop().chain()) / 1000.0);
  std::printf("player max inter-arrival gap: hand-held %.2f ms, laptop %.2f ms\n",
              testbed.handheld().player_stats().max_interarrival_gap / 1000.0,
              testbed.laptop().player_stats().max_interarrival_gap / 1000.0);
  const bool pass = result->outcome == proto::AdaptationOutcome::Success &&
                    testbed.total_corrupted() == 0 && testbed.total_undecodable() == 0;
  std::printf("paper's claim (no corruption, bounded delay via cheap singles) -> %s\n\n",
              pass ? "PASS" : "FAIL");
}

/// Measures the packet-delay cost of the single-action MAP against a forced
/// combined (pair/triple) action, reproducing Table 2's 10 ms vs 100/150 ms
/// tiers: combined sender+receiver actions block the server until the last
/// old-scheme packet has drained through the clients.
void compare_single_vs_pair_action() {
  struct Run {
    const char* label;
    core::PaperActionSet action_set;
    sim::Time server_delay = 0;
    sim::Time handheld_delay = 0;
    double adaptation_ms = 0;
    std::string path;
    bool clean = false;
  } runs[] = {
      {"singles (MAP avoids pair actions)", core::PaperActionSet::SinglesOnly, 0, 0, 0, "", false},
      {"forced combined pair action (A6-A15 tier)", core::PaperActionSet::CombinedOnly, 0, 0, 0, "",
       false},
  };

  // Target {D5,D2,E2}: reachable via A2,A17,A1,A16 (4 x 10 ms) with singles,
  // or via the triple action A13 alone when only combined actions exist.
  for (Run& run : runs) {
    core::TestbedConfig config;
    config.action_set = run.action_set;
    core::VideoTestbed testbed(config);
    const auto target =
        config::Configuration::of(testbed.system().registry(), {"D5", "D2", "E2"});

    testbed.start_stream();
    testbed.run_for(sim::ms(300));
    std::optional<proto::AdaptationResult> result;
    testbed.system().request_adaptation(
        target, [&result](const proto::AdaptationResult& r) { result = r; });
    testbed.run_for(sim::seconds(5));
    testbed.stop_stream();
    testbed.run_for(sim::seconds(1));

    run.server_delay = max_delay_of(testbed.server().chain());
    run.handheld_delay = max_delay_of(testbed.handheld().chain());
    if (result) {
      run.adaptation_ms = (result->finished - result->started) / 1000.0;
      run.clean = result->outcome == proto::AdaptationOutcome::Success &&
                  testbed.total_corrupted() == 0 && testbed.total_undecodable() == 0;
      std::string names;
      for (const auto& record : testbed.system().manager().step_log()) {
        if (!names.empty()) names += ", ";
        names += record.action_name;
      }
      run.path = names;
    }
  }

  std::printf("=== Table 2 cost tiers on the live stream (to {D5,D2,E2}) ===\n");
  std::printf("%-38s %-22s %-16s %-18s %-12s %s\n", "strategy", "path", "server max (ms)",
              "hand-held max (ms)", "total (ms)", "intact?");
  for (const Run& run : runs) {
    std::printf("%-38s %-22s %-16.2f %-18.2f %-12.2f %s\n", run.label, run.path.c_str(),
                run.server_delay / 1000.0, run.handheld_delay / 1000.0, run.adaptation_ms,
                run.clean ? "yes" : "NO");
  }
  std::printf("expected shape: the combined action blocks the server for the drain window, "
              "costing roughly an order of magnitude more server-side packet delay.\n\n");
}

void BM_LiveAdaptationEndToEnd(benchmark::State& state) {
  for (auto _ : state) {
    core::VideoTestbed testbed;
    testbed.start_stream();
    testbed.run_for(sim::ms(100));
    std::optional<proto::AdaptationResult> result;
    testbed.system().request_adaptation(
        testbed.target(), [&result](const proto::AdaptationResult& r) { result = r; });
    testbed.run_for(sim::seconds(3));
    testbed.stop_stream();
    if (!result || result->outcome != proto::AdaptationOutcome::Success) {
      state.SkipWithError("adaptation failed");
      return;
    }
    benchmark::DoNotOptimize(testbed.total_intact());
  }
}
BENCHMARK(BM_LiveAdaptationEndToEnd)->Unit(benchmark::kMillisecond);

void BM_SteadyStateStreaming(benchmark::State& state) {
  // Cost of simulating one second of steady-state video (no adaptation) —
  // the workload floor under every experiment.
  for (auto _ : state) {
    core::VideoTestbed testbed;
    testbed.start_stream();
    testbed.run_for(sim::seconds(1));
    testbed.stop_stream();
    benchmark::DoNotOptimize(testbed.total_intact());
  }
}
BENCHMARK(BM_SteadyStateStreaming)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  sa::util::set_log_level(sa::util::LogLevel::Off);
  run_map_on_live_stream();
  compare_single_vs_pair_action();
  return sa::benchio::run_and_report(argc, argv, "video_adaptation");
}
