// Experiment X4 — fleet-scale hierarchical adaptation: the §7 manager tree
// with epoch-batched group commit, driven from 8 clusters up to tens of
// thousands of simulated agents.
//
// The acceptance signal is FLATNESS: mean §4.3 blocked time per process must
// not grow with fleet size, because regions adapt independently and, inside a
// region, disjoint lanes commit concurrently under one root epoch. The sweep
// table and the BM_FleetMassAdaptation counters (exported to BENCH_fleet.json
// by the TeeReporter) both carry blocked_us_per_process so CI can gate on it.
//
// The preamble also runs the ThreadedRuntime storm: ~a thousand short-lived
// submitter threads race submit_adaptation against 32 regions' roots on the
// real-thread backend — group commit under genuine preemption.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/composite.hpp"
#include "core/fleet.hpp"
#include "obs/trace_analysis.hpp"
#include "proto/trace_check.hpp"
#include "util/log.hpp"

namespace {

using namespace sa;

core::FleetSpec spec_for(std::size_t clusters) {
  core::FleetSpec spec;
  spec.clusters = clusters;
  spec.threads = std::max(1U, std::thread::hardware_concurrency());
  return spec;
}

void print_fleet_sweep() {
  std::printf("=== Fleet mass adaptation: blocked time stays flat (Section 7) ===\n");
  std::printf("%-10s %-10s %-8s %-8s %-8s %-8s %-20s %-12s\n", "clusters", "agents",
              "regions", "coords", "depth", "epochs", "blocked_us/process", "virtual_ms");
  for (const std::size_t clusters : {8UL, 64UL, 512UL, 4096UL, 10000UL}) {
    const core::FleetReport report = core::run_fleet(spec_for(clusters));
    std::printf("%-10zu %-10zu %-8zu %-8zu %-8zu %-8llu %-20.1f %-12.1f%s\n", clusters,
                clusters, report.regions.size(), report.coordinators, report.depth,
                static_cast<unsigned long long>(report.epochs), report.blocked_us_per_process,
                report.virtual_time / 1000.0, report.success ? "" : "  FAILURE");
  }
  std::printf("expected: blocked time per process is independent of fleet size; only the\n"
              "tree gets deeper (log fanout) and the epoch count grows with regions.\n\n");
}

void print_threaded_storm() {
  core::ThreadedCampaignSpec spec;
  spec.regions = 32;
  spec.clusters_per_region = 32;
  spec.submitters_per_region = 32;  // 1024 submitter threads over 1024 clusters
  spec.runtime_workers = std::max(2U, std::thread::hardware_concurrency());
  const core::ThreadedCampaignReport report = core::run_threaded_campaign(spec);
  std::printf("=== ThreadedRuntime group-commit storm ===\n");
  std::printf("%zu submitter threads over %zu clusters: %llu/%zu tickets done, "
              "%llu root epochs -> %s\n",
              report.threads, report.clusters,
              static_cast<unsigned long long>(report.tickets), report.threads,
              static_cast<unsigned long long>(report.epochs),
              report.success ? "PASS" : "FAIL");
  for (const std::string& failure : report.failures) {
    std::printf("  %s\n", failure.c_str());
  }
  std::printf("\n");
}

/// One full fleet campaign per iteration; counters feed BENCH_fleet.json.
void BM_FleetMassAdaptation(benchmark::State& state) {
  const auto spec = spec_for(static_cast<std::size_t>(state.range(0)));
  bool success = true;
  core::FleetReport report;
  for (auto _ : state) {
    report = core::run_fleet(spec);
    success = success && report.success;
    benchmark::DoNotOptimize(report.digest);
  }
  if (!success) state.SkipWithError("fleet campaign failed");
  state.counters["clusters"] = static_cast<double>(spec.clusters);
  state.counters["regions"] = static_cast<double>(report.regions.size());
  state.counters["depth"] = static_cast<double>(report.depth);
  state.counters["epochs"] = static_cast<double>(report.epochs);
  state.counters["blocked_us_per_process"] = report.blocked_us_per_process;
  state.counters["virtual_ms"] = report.virtual_time / 1000.0;
}
BENCHMARK(BM_FleetMassAdaptation)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// The same campaign with the causal flight recorder on: measures the
/// recorder's wall-clock overhead against a back-to-back untraced run and
/// feeds the trace through the critical-path analysis, so BENCH_fleet.json
/// carries both the tracing cost and the attribution results. CI gates
/// tracing_overhead_pct at 5%.
void BM_FleetTracedAdaptation(benchmark::State& state) {
  const auto plain_spec = spec_for(static_cast<std::size_t>(state.range(0)));
  auto record_spec = plain_spec;
  record_spec.trace = true;
  record_spec.trace_export = false;  // arm the recorder, skip the export
  auto export_spec = plain_spec;
  export_spec.trace = true;

  using clock = std::chrono::steady_clock;
  double traced_s = 1e30;
  double plain_s = 1e30;
  bool success = true;
  core::FleetReport report;
  for (auto _ : state) {
    // The 5% gate covers the always-on recording path; the JSONL export is
    // an on-demand operation, so it runs once outside the timed pairs. One
    // untimed warmup plus min-of-3 interleaved pairs keeps first-touch page
    // faults and CPU frequency ramp out of the overhead ratio.
    const core::FleetReport warmup = core::run_fleet(plain_spec);
    core::FleetReport recorded;
    core::FleetReport plain;
    for (int pair = 0; pair < 3; ++pair) {
      const auto t0 = clock::now();
      recorded = core::run_fleet(record_spec);
      const auto t1 = clock::now();
      plain = core::run_fleet(plain_spec);
      const auto t2 = clock::now();
      traced_s = std::min(traced_s, std::chrono::duration<double>(t1 - t0).count());
      plain_s = std::min(plain_s, std::chrono::duration<double>(t2 - t1).count());
    }
    report = core::run_fleet(export_spec);
    success = success && report.success && plain.success && recorded.success &&
              warmup.success && report.digest == plain.digest &&
              recorded.digest == plain.digest && warmup.digest == plain.digest;
    benchmark::DoNotOptimize(report.digest);
  }
  if (!success) state.SkipWithError("traced fleet campaign failed or diverged");

  // Critical-path attribution over the recorded trace, checked as
  // `sa_trace --check` does: the stream rules and the telescoping invariant.
  std::string jsonl;
  for (const core::RegionReport& region : report.regions) jsonl += region.trace_jsonl;
  const std::vector<obs::TraceLine> lines = obs::parse_trace(jsonl);
  const obs::TraceAnalysis analysis = obs::analyze(lines);
  const bool conforms = proto::check_stream(lines).empty();
  if (!conforms) state.SkipWithError("recorded trace fails sa_trace --check");
  double path_nodes = 0;
  for (const obs::EpochCriticalPath& epoch : analysis.epochs) {
    path_nodes += static_cast<double>(epoch.path.size());
  }

  state.counters["clusters"] = static_cast<double>(plain_spec.clusters);
  state.counters["trace_events"] = static_cast<double>(report.trace_events);
  state.counters["trace_dropped"] = static_cast<double>(report.trace_dropped);
  state.counters["tracing_overhead_pct"] =
      plain_s > 0 ? (traced_s / plain_s - 1.0) * 100.0 : 0.0;
  state.counters["recorded_ms"] = traced_s * 1e3;
  state.counters["plain_ms"] = plain_s * 1e3;
  state.counters["root_epochs"] = static_cast<double>(analysis.epochs.size());
  state.counters["critical_paths_verified"] =
      conforms ? static_cast<double>(analysis.epochs.size()) : 0.0;
  state.counters["critical_path_nodes_mean"] =
      analysis.epochs.empty() ? 0.0 : path_nodes / static_cast<double>(analysis.epochs.size());
  state.counters["root_epoch_p99_us"] =
      static_cast<double>(analysis.latencies.at("root_epoch").p99);
  state.counters["blocked_us_total"] = analysis.blocked_us_total;
}
BENCHMARK(BM_FleetTracedAdaptation)
    ->Arg(512)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// Group-commit coalescing on the simulator: `range(0)` submissions land
/// inside one root epoch window; same-shard targets coalesce so the pipeline
/// runs far fewer epochs than tickets.
void BM_GroupCommitCoalescing(benchmark::State& state) {
  const std::size_t tickets = static_cast<std::size_t>(state.range(0));
  const std::size_t clusters = 16;
  std::uint64_t epochs = 0;
  for (auto _ : state) {
    core::CompositeConfig config;
    config.control_channel = runtime::ChannelConfig{runtime::ms(2), 0, 0.0, true};
    config.topology.lanes_per_leaf = 4;
    config.topology.fanout = 4;
    core::CompositeAdaptationSystem system(config);
    std::vector<std::unique_ptr<proto::ObedientProcess>> processes;
    for (std::size_t c = 0; c < clusters; ++c) {
      const std::string s = std::to_string(c);
      system.registry().add("X" + s, static_cast<config::ProcessId>(c));
      system.registry().add("Y" + s, static_cast<config::ProcessId>(c));
    }
    for (std::size_t c = 0; c < clusters; ++c) {
      const std::string s = std::to_string(c);
      system.add_invariant("one" + s, "one(X" + s + ", Y" + s + ")");
      system.add_action("swap" + s, {"X" + s}, {"Y" + s}, 10);
    }
    for (std::size_t c = 0; c < clusters; ++c) {
      processes.push_back(std::make_unique<proto::ObedientProcess>());
      system.attach_process(static_cast<config::ProcessId>(c), *processes.back(), 0);
    }
    system.finalize();
    config::Configuration source, target;
    for (std::size_t c = 0; c < clusters; ++c) {
      const std::string s = std::to_string(c);
      source = source.with(system.registry().require("X" + s));
      target = target.with(system.registry().require("Y" + s));
    }
    system.set_current_configuration(source);

    std::size_t done = 0;
    for (std::size_t t = 0; t < tickets; ++t) {
      system.submit_adaptation(target, [&done](const core::CompositeResult&) { ++done; });
    }
    system.runtime().wait_until([&] { return done == tickets; });
    epochs = system.root_coordinator().epochs_completed();
    benchmark::DoNotOptimize(done);
  }
  state.counters["tickets"] = static_cast<double>(tickets);
  state.counters["epochs"] = static_cast<double>(epochs);
}
BENCHMARK(BM_GroupCommitCoalescing)->Arg(1)->Arg(16)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  sa::util::set_log_level(sa::util::LogLevel::Off);
  print_fleet_sweep();
  print_threaded_storm();
  return sa::benchio::run_and_report(argc, argv, "fleet");
}
