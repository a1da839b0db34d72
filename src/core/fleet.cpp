#include "core/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/composite.hpp"
#include "obs/export.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/threaded_runtime.hpp"

namespace sa::core {

namespace {

/// splitmix64 finalizer — the campaign's digest mixer.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

struct RegionEndpoints {
  config::Configuration source;  ///< every cluster on X
  config::Configuration target;  ///< every cluster on Y
};

/// Adds `count` X/Y clusters (global ids starting at `first`) to `system`:
/// one process, one one(X,Y) invariant, and one swap action per cluster, so
/// every cluster is its own collaborative set on its own lane.
RegionEndpoints build_region(CompositeAdaptationSystem& system, std::size_t first,
                             std::size_t count,
                             std::vector<std::unique_ptr<proto::ObedientProcess>>& processes) {
  for (std::size_t c = 0; c < count; ++c) {
    const std::string s = std::to_string(first + c);
    system.registry().add("X" + s, static_cast<config::ProcessId>(c));
    system.registry().add("Y" + s, static_cast<config::ProcessId>(c));
  }
  for (std::size_t c = 0; c < count; ++c) {
    const std::string s = std::to_string(first + c);
    system.add_invariant("one" + s, "one(X" + s + ", Y" + s + ")");
    system.add_action("swap" + s, {"X" + s}, {"Y" + s}, 10);
  }
  for (std::size_t c = 0; c < count; ++c) {
    processes.push_back(std::make_unique<proto::ObedientProcess>());
    system.attach_process(static_cast<config::ProcessId>(c), *processes.back(), 0);
  }
  system.finalize();

  RegionEndpoints endpoints;
  for (std::size_t c = 0; c < count; ++c) {
    const std::string s = std::to_string(first + c);
    endpoints.source = endpoints.source.with(system.registry().require("X" + s));
    endpoints.target = endpoints.target.with(system.registry().require("Y" + s));
  }
  return endpoints;
}

CompositeConfig region_config(const FleetSpec& spec, std::size_t region) {
  CompositeConfig config;
  // Zero jitter: per-process blocked time then depends only on the pipeline
  // shape, which is what the flatness acceptance gate compares across scales.
  config.control_channel = runtime::ChannelConfig{runtime::ms(2), 0, 0.0, true};
  config.topology.lanes_per_leaf = spec.lanes_per_leaf;
  config.topology.fanout = spec.fanout;
  config.topology.epoch_window = spec.epoch_window;
  config.seed = mix(spec.seed, region);
  return config;
}

RegionReport run_region(const FleetSpec& spec, std::size_t region, std::size_t first,
                        std::size_t count) {
  RegionReport report;
  report.region = region;
  report.clusters = count;

  runtime::SimRuntime rt(mix(spec.seed, region));
  CompositeAdaptationSystem system(rt, region_config(spec, region));
  if (spec.trace) {
    system.tracer().set_capacity(spec.trace_capacity);
    system.tracer().set_detail(spec.trace_full ? obs::TraceDetail::Full
                                               : obs::TraceDetail::Causal);
    system.tracer().set_enabled(true);
  }
  std::vector<std::unique_ptr<proto::ObedientProcess>> processes;
  const RegionEndpoints endpoints = build_region(system, first, count, processes);

  report.shards = system.shard_count();
  report.lanes = system.lane_count();
  report.coordinators = system.coordinator_count();
  report.depth = system.tree_depth();

  system.set_current_configuration(endpoints.source);
  const CompositeResult result = system.adapt_and_wait(endpoints.target, spec.max_events);

  report.success = result.success && result.orphaned == 0 &&
                   system.current_configuration() == endpoints.target;
  report.epochs = system.root_coordinator().epochs_completed();
  report.orphaned = result.orphaned;
  report.virtual_time = result.finished - result.started;
  report.blocked_us_per_process =
      count == 0 ? 0.0
                 : system.metrics().histogram_family_sum("sa_blocked_time_us") /
                       static_cast<double>(count);

  std::uint64_t digest = mix(spec.seed, region);
  digest = mix(digest, result.epoch);
  digest = mix(digest, result.final_config.bits());
  digest = mix(digest, static_cast<std::uint64_t>(report.virtual_time));
  digest = mix(digest, report.success ? 1 : 0);
  for (const proto::ShardOutcome& outcome : result.outcomes) {
    digest = mix(digest, (static_cast<std::uint64_t>(outcome.shard) << 8) ^
                             (static_cast<std::uint64_t>(outcome.result.outcome) << 1) ^
                             (outcome.reported ? 1 : 0));
  }
  report.digest = digest;

  if (spec.trace) {
    report.trace_events = system.tracer().size();
    report.trace_dropped = system.tracer().dropped();
    if (spec.trace_export) {
      // A region runs entirely on one worker thread over SimRuntime, so the
      // recorder's merged order is append order in virtual time and this
      // serialization is a pure function of (seed, region, spec).
      std::ostringstream trace;
      obs::write_jsonl(system.tracer(), trace, region);
      report.trace_jsonl = trace.str();
    }
  }
  return report;
}

}  // namespace

FleetReport run_fleet(const FleetSpec& spec) {
  const std::size_t per_region = std::clamp<std::size_t>(spec.clusters_per_region, 1, 32);
  const std::size_t region_count =
      spec.clusters == 0 ? 0 : (spec.clusters + per_region - 1) / per_region;

  FleetReport report;
  report.clusters = spec.clusters;
  report.success = true;
  report.regions.resize(region_count);
  if (region_count == 0) return report;

  // Slot-per-region results behind an atomic cursor: any worker count yields
  // the identical report because each region is a pure function of the spec.
  std::atomic<std::size_t> cursor{0};
  const std::size_t workers = std::clamp<std::size_t>(spec.threads, 1, region_count);
  const auto work = [&] {
    for (std::size_t r = cursor.fetch_add(1); r < region_count; r = cursor.fetch_add(1)) {
      const std::size_t first = r * per_region;
      const std::size_t count = std::min(per_region, spec.clusters - first);
      try {
        report.regions[r] = run_region(spec, r, first, count);
      } catch (const std::exception&) {
        report.regions[r].region = r;
        report.regions[r].clusters = count;
        report.regions[r].success = false;  // e.g. event budget exhausted
      }
    }
  };
  if (workers == 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
  }

  double blocked_weighted = 0;
  for (const RegionReport& region : report.regions) {
    report.success = report.success && region.success;
    report.coordinators += region.coordinators;
    report.depth = std::max(report.depth, region.depth);
    report.epochs += region.epochs;
    report.orphaned += region.orphaned;
    report.virtual_time = std::max(report.virtual_time, region.virtual_time);
    blocked_weighted += region.blocked_us_per_process * static_cast<double>(region.clusters);
    report.digest = mix(report.digest, region.digest);
    report.trace_events += region.trace_events;
    report.trace_dropped += region.trace_dropped;
  }
  report.blocked_us_per_process =
      spec.clusters == 0 ? 0.0 : blocked_weighted / static_cast<double>(spec.clusters);
  return report;
}

std::string describe(const FleetReport& report) {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "fleet: clusters=%zu regions=%zu\n", report.clusters,
                report.regions.size());
  out << line;
  for (const RegionReport& region : report.regions) {
    std::snprintf(line, sizeof(line),
                  "region %04zu: %s clusters=%zu shards=%zu lanes=%zu coords=%zu depth=%zu "
                  "epochs=%llu orphaned=%llu blocked_us/proc=%.3f virtual_us=%lld "
                  "digest=%016llx\n",
                  region.region, region.success ? "ok" : "FAIL", region.clusters,
                  region.shards, region.lanes, region.coordinators, region.depth,
                  static_cast<unsigned long long>(region.epochs),
                  static_cast<unsigned long long>(region.orphaned),
                  region.blocked_us_per_process,
                  static_cast<long long>(region.virtual_time),
                  static_cast<unsigned long long>(region.digest));
    out << line;
  }
  std::snprintf(line, sizeof(line),
                "fleet: %s coords=%zu depth=%zu epochs=%llu orphaned=%llu "
                "blocked_us/proc=%.3f virtual_us=%lld digest=%016llx\n",
                report.success ? "success" : "FAILURE", report.coordinators, report.depth,
                static_cast<unsigned long long>(report.epochs),
                static_cast<unsigned long long>(report.orphaned),
                report.blocked_us_per_process, static_cast<long long>(report.virtual_time),
                static_cast<unsigned long long>(report.digest));
  out << line;
  return out.str();
}

ThreadedCampaignReport run_threaded_campaign(const ThreadedCampaignSpec& spec) {
  ThreadedCampaignReport report;
  const std::size_t per_region = std::clamp<std::size_t>(spec.clusters_per_region, 1, 32);
  const std::size_t regions = std::max<std::size_t>(1, spec.regions);
  const std::size_t submitters = std::max<std::size_t>(1, spec.submitters_per_region);
  report.clusters = regions * per_region;
  report.threads = regions * submitters;

  runtime::ThreadedRuntimeOptions options;
  options.workers = std::max<std::size_t>(1, spec.runtime_workers);
  options.seed = spec.seed;
  options.wait_cap = spec.wait_cap;
  runtime::ThreadedRuntime rt(options);

  std::vector<std::unique_ptr<CompositeAdaptationSystem>> systems;
  std::vector<std::vector<std::unique_ptr<proto::ObedientProcess>>> processes(regions);
  std::vector<RegionEndpoints> endpoints;
  FleetSpec shape;  // reuse the per-region tree shape defaults
  shape.seed = spec.seed;
  for (std::size_t r = 0; r < regions; ++r) {
    systems.push_back(std::make_unique<CompositeAdaptationSystem>(rt, region_config(shape, r)));
    endpoints.push_back(build_region(*systems[r], r * per_region, per_region, processes[r]));
    systems[r]->set_current_configuration(endpoints[r].source);
  }

  std::atomic<std::uint64_t> done{0};
  std::mutex failures_mutex;
  const auto fail = [&](std::string what) {
    std::lock_guard lock(failures_mutex);
    report.failures.push_back(std::move(what));
  };

  // The storm: every submitter races the same all-Y target into its region's
  // root. Same-epoch submissions coalesce into one batch; later ones observe
  // the target reached and complete through no-op epochs. Each submission
  // still gets its own ticket and must terminate.
  std::vector<std::thread> storm;
  storm.reserve(report.threads);
  for (std::size_t r = 0; r < regions; ++r) {
    for (std::size_t s = 0; s < submitters; ++s) {
      storm.emplace_back([&, r] {
        systems[r]->submit_adaptation(
            endpoints[r].target, [&, r](const CompositeResult& result) {
              if (!result.success || result.orphaned != 0) {
                fail("region " + std::to_string(r) + ": ticket epoch " +
                     std::to_string(result.epoch) + " failed (orphaned=" +
                     std::to_string(result.orphaned) + ")");
              }
              done.fetch_add(1, std::memory_order_release);
            });
      });
    }
  }
  for (std::thread& t : storm) t.join();

  const std::uint64_t expected = report.threads;
  if (!rt.wait_until(
          [&] { return done.load(std::memory_order_acquire) >= expected; })) {
    fail("campaign did not quiesce: " + std::to_string(done.load()) + "/" +
         std::to_string(expected) + " tickets completed within the wait cap");
  }
  report.tickets = done.load();

  for (std::size_t r = 0; r < regions; ++r) {
    report.epochs += systems[r]->root_coordinator().epochs_completed();
    if (systems[r]->current_configuration() != endpoints[r].target) {
      fail("region " + std::to_string(r) + " did not rest at the all-Y target");
    }
  }

  // Quiesce the runtime while the systems (its transport handlers) are alive.
  rt.shutdown();
  report.success = report.failures.empty();
  return report;
}

}  // namespace sa::core
