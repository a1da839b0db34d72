// fleet_wave: the control plane on the simulator. Regions of 32 independent
// X/Y clusters are built and finalized through the public
// CompositeAdaptationSystem API (set-up), then a single-threaded closed loop
// sends one region at a time a request that swaps all 32 clusters, flipping
// X -> Y and back. Op: one committed cluster swap.
#include <memory>

#include "actions/action.hpp"
#include "actions/planner.hpp"
#include "actions/sag.hpp"
#include "config/enumerate.hpp"
#include "config/invariants.hpp"
#include "config/registry.hpp"
#include "core/composite.hpp"
#include "expr/parser.hpp"
#include "runtime/sim_runtime.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr std::size_t kClusters = 32;  // per region: one 64-bit Configuration
constexpr std::size_t kRegions = 320;  // 10,240 clusters
constexpr double kBlockedPerProcessUs = 2200;  // virtual; a gate, never a latency

/// Quiesces at once and records, in wall time, how long the adaptation keeps
/// it blocked: from reaching its safe state to being resumed.
struct WallProcess : sa::proto::AdaptableProcess {
  explicit WallProcess(std::vector<double>& windows) : windows_(&windows) {}
  bool prepare(const sa::proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override {
    blocked_at_ = Clock::now();
    reached();
  }
  void abort_safe_state() override {}
  bool apply(const sa::proto::LocalCommand&) override { return true; }
  bool undo(const sa::proto::LocalCommand&) override { return true; }
  void resume() override { windows_->push_back(us_between(blocked_at_, Clock::now())); }

 private:
  std::vector<double>* windows_;
  Clock::time_point blocked_at_;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 27);
}

struct Region {
  std::unique_ptr<sa::runtime::SimRuntime> rt;
  std::unique_ptr<sa::core::CompositeAdaptationSystem> system;
  std::vector<std::unique_ptr<WallProcess>> processes;
  sa::config::Configuration on_x, on_y;
  bool at_y = false;
  double finalize_us = 0;
  double setup_us = 0;
};

Region build_region(std::uint64_t seed, std::size_t index, std::vector<double>& windows) {
  const auto t0 = Clock::now();
  Region region;
  region.rt = std::make_unique<sa::runtime::SimRuntime>(mix(seed, index));
  sa::core::CompositeConfig config;
  config.control_channel = sa::runtime::ChannelConfig{sa::runtime::ms(2), 0, 0.0, true};
  config.topology.lanes_per_leaf = 4;
  config.topology.fanout = 4;
  config.topology.epoch_window = sa::runtime::us(500);
  config.seed = mix(seed, index);
  region.system = std::make_unique<sa::core::CompositeAdaptationSystem>(*region.rt, config);
  auto& system = *region.system;

  const std::size_t first = index * kClusters;
  for (std::size_t c = 0; c < kClusters; ++c) {
    const std::string s = std::to_string(first + c);
    system.registry().add("X" + s, static_cast<sa::config::ProcessId>(c));
    system.registry().add("Y" + s, static_cast<sa::config::ProcessId>(c));
  }
  for (std::size_t c = 0; c < kClusters; ++c) {
    const std::string s = std::to_string(first + c);
    system.add_invariant("one" + s, "one(X" + s + ", Y" + s + ")");
    system.add_action("up" + s, {"X" + s}, {"Y" + s}, 10);
    system.add_action("down" + s, {"Y" + s}, {"X" + s}, 10);
  }
  for (std::size_t c = 0; c < kClusters; ++c) {
    region.processes.push_back(std::make_unique<WallProcess>(windows));
    system.attach_process(static_cast<sa::config::ProcessId>(c), *region.processes.back(), 0);
  }
  const auto f0 = Clock::now();
  system.finalize();
  region.finalize_us = us_between(f0, Clock::now());

  for (std::size_t c = 0; c < kClusters; ++c) {
    const std::string s = std::to_string(first + c);
    region.on_x = region.on_x.with(system.registry().require("X" + s));
    region.on_y = region.on_y.with(system.registry().require("Y" + s));
  }
  system.set_current_configuration(region.on_x);
  region.setup_us = us_between(t0, Clock::now());
  return region;
}

struct Request {
  double wall_us = 0;
  bool ok = false;
  std::uint64_t epochs = 0;
};

/// One region request (all 32 clusters flip), with its gates.
Request adapt(Region& region) {
  auto& system = *region.system;
  const auto& target = region.at_y ? region.on_x : region.on_y;
  const double blocked_before = system.metrics().histogram_family_sum("sa_blocked_time_us");
  const std::uint64_t epochs_before = system.root_coordinator().epochs_completed();
  const auto t0 = Clock::now();
  const sa::core::CompositeResult result = system.adapt_and_wait(target);
  Request request;
  request.wall_us = us_between(t0, Clock::now());
  const double blocked =
      (system.metrics().histogram_family_sum("sa_blocked_time_us") - blocked_before) / kClusters;
  request.epochs = system.root_coordinator().epochs_completed() - epochs_before;
  request.ok = result.success && result.orphaned == 0 && system.current_configuration() == target &&
               blocked == kBlockedPerProcessUs;
  region.at_y = !region.at_y;
  return request;
}

/// Planning for one region outside the composite system, per collaborative
/// set as finalize() does it: parse the invariant, enumerate the safe
/// configurations, build the SAG and find the minimum adaptation path.
void probe_planning(Report& report) {
  std::vector<double> parse, enumerate, plan;
  for (int rep = 0; rep < 40; ++rep) {
    double parse_us = 0, enumerate_us = 0, plan_us = 0;
    for (std::size_t c = 0; c < kClusters; ++c) {
      const std::string s = std::to_string(c);
      sa::config::ComponentRegistry registry;
      const auto x = registry.add("X" + s, 0);
      const auto y = registry.add("Y" + s, 0);
      sa::config::InvariantSet invariants(registry);
      auto t0 = Clock::now();
      auto predicate = sa::expr::parse("one(X" + s + ", Y" + s + ")");
      parse_us += us_between(t0, Clock::now());
      invariants.add("one" + s, std::move(predicate));

      t0 = Clock::now();
      const auto safe = sa::config::enumerate_safe_decomposed(invariants);
      enumerate_us += us_between(t0, Clock::now());

      sa::actions::ActionTable table(registry);
      table.add("up" + s, {"X" + s}, {"Y" + s}, 10);
      table.add("down" + s, {"Y" + s}, {"X" + s}, 10);
      t0 = Clock::now();
      const sa::actions::SafeAdaptationGraph sag(table, safe);
      const sa::actions::PathPlanner planner(sag);
      const auto path = planner.minimum_path(sa::config::Configuration{}.with(x),
                                             sa::config::Configuration{}.with(y));
      plan_us += us_between(t0, Clock::now());
      report.check(path.has_value() && path->steps.size() == 1,
                   "fleet_wave: planning probe found no path");
    }
    parse.push_back(parse_us);
    enumerate.push_back(enumerate_us);
    plan.push_back(plan_us);
  }
  report.layers.push_back({"expr.parse_us_per_region", median(parse), "us"});
  report.layers.push_back({"config.enumerate_us_per_region", median(enumerate), "us"});
  report.layers.push_back({"actions.plan_us_per_region", median(plan), "us"});
}

}  // namespace

Report run_fleet_wave(const RunConfig& cfg) {
  Report report;
  std::vector<double> windows;  // per-process wall blocked windows, in us

  std::vector<double> setups;
  std::vector<Region> regions;
  for (int i = 0; i < cfg.setups; ++i) {
    regions.clear();
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < kRegions; ++r) {
      regions.push_back(build_region(cfg.seed, r, windows));
    }
    setups.push_back(s_between(t0, Clock::now()));
  }

  // One untimed pass: each region's first request pays one-off lazy
  // allocations, which would otherwise set the tail of the timed phase.
  bool warm_ok = true;
  for (Region& region : regions) warm_ok = adapt(region).ok && warm_ok;
  report.check(warm_ok, "fleet_wave: a warm-up region request failed");
  windows.clear();

  std::vector<double> latencies;
  std::uint64_t swaps = 0, failed_requests = 0;
  const auto begin = Clock::now();
  const auto deadline = after(begin, cfg.seconds);
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    const Request request = adapt(regions[i % kRegions]);
    latencies.push_back(request.wall_us);
    swaps += kClusters;
    if (!request.ok) ++failed_requests;
  }
  const double elapsed = s_between(begin, Clock::now());

  report.attempted = swaps;
  report.failed = failed_requests * kClusters;
  report.check(failed_requests == 0,
               "fleet_wave: a region failed, orphaned a shard or missed 2200 us blocked per "
               "process");
  report.check(windows.size() == swaps, "fleet_wave: blocked windows != cluster swaps");
  const double ops_per_s = static_cast<double>(swaps) / elapsed;
  const Tail tail = tail_of(latencies, 99);
  report.notes.push_back("fleet_wave: " + std::to_string(latencies.size()) +
                         " region requests over " +
                         std::to_string(kRegions) + " regions; latency tail " + describe(tail));
  report.end_to_end = {
      {"setup_s", median(setups), "s"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"latency_p50_us", median(latencies), "us"},
      {"blocked_p50_us", median(windows), "us"},
      {"peak_rss_mb", peak_rss_mb_with({}), "MB"},
  };

  if (cfg.traced) {
    std::vector<double> finalize, residual;
    for (const Region& region : regions) {
      finalize.push_back(region.finalize_us / 1000.0);
      residual.push_back((region.setup_us - region.finalize_us) / 1000.0);
    }
    report.layers.push_back({"core.finalize_ms_per_region", median(finalize), "ms"});
    report.layers.push_back({"core.build_residual_ms_per_region", median(residual), "ms"});
    report.layers.push_back({"core.adapt_us_per_region", median(latencies), "us"});

    // Recorder cost: the same regions adapted with the causal recorder on
    // and off, alternating so drift hits both sides alike. Capacity as
    // run_fleet sizes it; one untimed recorded pass fills the rings first.
    std::vector<double> on, off;
    for (std::size_t i = 0; i < 5 * kRegions; ++i) {
      Region& region = regions[i % kRegions];
      const std::size_t pass = i / kRegions;
      auto& tracer = region.system->tracer();
      if (pass == 0) {
        tracer.set_capacity(1 << 10);
        tracer.set_detail(sa::obs::TraceDetail::Causal);
      }
      const bool record = pass % 2 == 0;
      tracer.set_enabled(record);
      const double wall = adapt(region).wall_us;
      if (pass > 0) (record ? on : off).push_back(wall);
      tracer.set_enabled(false);
    }
    report.layers.push_back({"obs.recorder_overhead_ratio", median(on) / median(off), "ratio"});

    // Exact counts: messages and epochs per region request.
    std::vector<double> messages, epochs;
    for (std::size_t r = 0; r < kRegions; ++r) {
      auto& transport = regions[r].rt->transport();
      transport.clear_trace();
      transport.set_tracing(true);
      const Request request = adapt(regions[r]);
      transport.set_tracing(false);
      report.check(request.ok, "fleet_wave: traced region request failed");
      messages.push_back(static_cast<double>(transport.trace().size()));
      epochs.push_back(static_cast<double>(request.epochs));
    }
    report.layers.push_back({"proto.messages_per_region", median(messages), "count"});
    report.layers.push_back({"proto.epochs_per_region", median(epochs), "count"});
    probe_planning(report);
  }
  return report;
}

}  // namespace pb
