// Golden digests of the protocol drivers' observability output.
//
// Each case records one deterministic SimRuntime run at Full trace detail
// and folds the recorder's JSONL export plus the Prometheus text of the
// metrics registry into one FNV-1a digest. The runs are chosen so that every
// driver effect shows up in the stream: protocol timers that arm, fire and
// cancel, Fig. 1 / Fig. 2 transitions through the rollback chain, and a
// coordinator tree whose epoch window and commit timeout both fire. Any
// change to what the manager, agent or coordinator drivers record — event
// order, coordinates, tracks, labels, values, metric series — moves a digest.
// The composite run's Chrome export is checked for one valid tid per track.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/composite.hpp"
#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "inject/faulty_runtime.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/json.hpp"

namespace sa::obs {
namespace {

struct StubProcess : proto::AdaptableProcess {
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override { return true; }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override {}
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// JSONL trace, a separator line, then the Prometheus exposition.
std::string export_all(const TraceRecorder& recorder, const MetricsRegistry& metrics) {
  std::ostringstream out;
  write_jsonl(recorder, out);
  out << "--\n";
  write_prometheus(metrics, out);
  return out.str();
}

std::size_t count(const TraceRecorder& recorder, EventKind kind, const std::string& name = "") {
  std::size_t n = 0;
  for (const Event& e : recorder.events()) {
    if (e.kind == kind && (name.empty() || e.name == name)) ++n;
  }
  return n;
}

// The paper MAP on a lossy control channel with the laptop's agent unable to
// reach its safe state: retransmission rounds, reset timeouts, rollbacks and
// the §4.4 re-plan chain, so every manager and agent timer arms, fires and
// is cancelled somewhere in the stream.
TEST(ObsGolden, PaperMapWithLossAndFailingProcess) {
  runtime::SimRuntime rt(2004);
  core::SystemConfig config;
  config.control_channel.loss_probability = 0.1;
  config.manager.message_retries = 8;
  core::SafeAdaptationSystem system(rt, config);
  core::configure_paper_system(system);
  StubProcess server, handheld, laptop;
  system.attach_process(core::kServerProcess, server, 0);
  system.attach_process(core::kHandheldProcess, handheld, 1);
  system.attach_process(core::kLaptopProcess, laptop, 1);
  system.tracer().set_detail(TraceDetail::Full);
  system.tracer().set_enabled(true);
  system.finalize();
  system.set_current_configuration(core::paper_source(system.registry()));
  system.agent(core::kLaptopProcess).set_fail_to_reset(true);

  const proto::AdaptationResult result =
      system.adapt_and_wait(core::paper_target(system.registry()), 10'000'000);
  EXPECT_NE(result.outcome, proto::AdaptationOutcome::Success);
  EXPECT_GT(count(system.tracer(), EventKind::TimerArmed), 0U);
  EXPECT_GT(count(system.tracer(), EventKind::TimerFired), 0U);
  EXPECT_GT(count(system.tracer(), EventKind::TimerCancelled), 0U);

  const std::string text = export_all(system.tracer(), system.metrics());
  EXPECT_EQ(fnv1a(text), 0x99d81b4f8cfc918eULL) << std::hex << fnv1a(text);
}

// A 4-cluster composite under a 3-level tree (one lane per leaf, fanout 2)
// with the root's first link cut for good: the root seals its epoch when the
// window fires, and the cut subtree's shards are orphaned when the commit
// timeout fires.
struct CutCompositeRun {
  static core::CompositeConfig config() {
    core::CompositeConfig config;
    config.seed = 7;
    config.topology.lanes_per_leaf = 1;
    config.topology.fanout = 2;
    config.topology.commit_timeout = runtime::ms(100);
    return config;
  }

  runtime::SimRuntime sim{7};
  inject::FaultyRuntime rt{sim, 11};
  core::CompositeAdaptationSystem system{rt, config()};
  std::vector<std::unique_ptr<StubProcess>> processes;
  core::CompositeResult result;

  CutCompositeRun() {
    constexpr std::size_t kClusters = 4;
    for (std::size_t c = 0; c < kClusters; ++c) {
      const std::string s = std::to_string(c);
      system.registry().add("X" + s, static_cast<config::ProcessId>(c));
      system.registry().add("Y" + s, static_cast<config::ProcessId>(c));
    }
    config::Configuration source, target;
    for (std::size_t c = 0; c < kClusters; ++c) {
      const std::string s = std::to_string(c);
      system.add_invariant("one" + s, "one(X" + s + ", Y" + s + ")");
      system.add_action("swap" + s, {"X" + s}, {"Y" + s}, 10);
      system.add_action("back" + s, {"Y" + s}, {"X" + s}, 10);
      processes.push_back(std::make_unique<StubProcess>());
      system.attach_process(static_cast<config::ProcessId>(c), *processes.back(), 0);
      source = source.with(static_cast<config::ComponentId>(2 * c));
      target = target.with(static_cast<config::ComponentId>(2 * c + 1));
    }
    system.tracer().set_detail(TraceDetail::Full);
    system.tracer().set_enabled(true);
    system.finalize();
    system.set_current_configuration(source);
    if (system.coordinator_links().empty()) throw std::logic_error("tree has no coordinator link");
    const auto [parent, child] = system.coordinator_links().front();
    rt.faulty_transport().partition_pair(parent, child, true);
    result = system.adapt_and_wait(target);
  }
};

TEST(ObsGolden, CompositeTreeWithCutCoordinatorLink) {
  CutCompositeRun run;
  EXPECT_FALSE(run.result.success);
  EXPECT_GT(run.result.orphaned, 0U);
  EXPECT_GT(count(run.system.tracer(), EventKind::TimerFired, "epoch window"), 0U);
  EXPECT_GT(count(run.system.tracer(), EventKind::TimerFired, "commit timeout"), 0U);

  const std::string text = export_all(run.system.tracer(), run.system.metrics());
  EXPECT_EQ(fnv1a(text), 0x33811deb1f997a11ULL) << std::hex << fnv1a(text);
}

// The same run's Chrome export: shard managers and agents record on tracks
// numbered by their nodes, coordinators on negative tracks, and every one of
// them must land on a non-negative tid of its own.
TEST(ObsGolden, CompositeChromeExportGivesEachTrackItsOwnNonNegativeTid) {
  CutCompositeRun run;
  std::ostringstream out;
  write_chrome_trace(run.system.tracer(), out);
  const util::JsonValue trace = util::parse_json(out.str(), "Chrome trace");
  const util::JsonValue* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::set<std::int64_t> thread_tids;
  std::size_t thread_names = 0;
  for (const util::JsonValue& e : events->array) {
    const util::JsonValue* tid = e.find("tid");
    if (tid == nullptr) continue;
    ASSERT_TRUE(tid->is_integer);
    const auto value = static_cast<std::int64_t>(tid->integer);
    EXPECT_GE(value, 0);
    const util::JsonValue* name = e.find("name");
    if (name != nullptr && name->string == "thread_name") {
      ++thread_names;
      thread_tids.insert(value);
    }
  }
  const std::map<std::int64_t, std::string> tracks = run.system.tracer().track_names();
  EXPECT_LT(tracks.begin()->first, kManagerTrack) << "the run has no coordinator track";
  EXPECT_EQ(thread_names, tracks.size());
  EXPECT_EQ(thread_tids.size(), tracks.size()) << "two tracks share a tid";
}

}  // namespace
}  // namespace sa::obs
