// Stale timer fires: the generation guard of the protocol drivers' timer
// slots.
//
// On the threaded backend a timer callback the timer thread has already
// dequeued cannot be cancelled: cancel() returns false and the callback runs
// anyway, after the driver moved on. LateCancelRuntime makes that race
// deterministic over SimRuntime: its clock refuses every cancel() and lets
// the callback run at its original deadline. A driver whose slots drop such
// stale fires behaves exactly as on the plain simulator — same outcome, same
// committed actions, the same recorder stream — and no TimerFired ever
// follows the disarm of its slot. ThreadedTimerSlot runs the race itself on
// the threaded backend's timer thread.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/composite.hpp"
#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "obs/export.hpp"
#include "obs/trace_analysis.hpp"
#include "obs/trace_recorder.hpp"
#include "proto/effects.hpp"
#include "proto/trace_check.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/threaded_runtime.hpp"

namespace sa::proto {
namespace {

struct StubProcess : AdaptableProcess {
  bool prepare(const LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const LocalCommand&) override { return true; }
  bool undo(const LocalCommand&) override { return true; }
  void resume() override {}
};

/// Refuses every cancel(): the timer stays queued and its callback runs at
/// the original deadline, as a callback the threaded backend's timer thread
/// dequeued just before the cancel would.
class LateCancelClock final : public runtime::Clock {
 public:
  explicit LateCancelClock(runtime::Clock& inner) : inner_(&inner) {}

  runtime::Time now() const override { return inner_->now(); }
  runtime::TimerId schedule_at(runtime::Time t, std::function<void()> fn) override {
    return schedule_after(t - now(), std::move(fn));
  }
  runtime::TimerId schedule_after(runtime::Time delay, std::function<void()> fn) override {
    // The simulator is single-threaded: the id is set before the callback
    // can run.
    auto id = std::make_shared<runtime::TimerId>(0);
    *id = inner_->schedule_after(delay, [this, id, fn = std::move(fn)] {
      if (refused_.count(*id) != 0) ++late_runs_;
      fn();
    });
    return *id;
  }
  bool cancel(runtime::TimerId id) override {
    refused_.insert(id);
    return false;
  }

  std::size_t refused() const { return refused_.size(); }
  /// Callbacks that ran after their cancel() was refused.
  std::size_t late_runs() const { return late_runs_; }

 private:
  runtime::Clock* inner_;
  std::set<runtime::TimerId> refused_;
  std::size_t late_runs_ = 0;
};

/// SimRuntime with its clock behind LateCancelClock.
class LateCancelRuntime final : public runtime::Runtime {
 public:
  explicit LateCancelRuntime(std::uint64_t seed) : sim_(seed), clock_(sim_.clock()) {}

  runtime::Clock& clock() override { return clock_; }
  runtime::Executor& executor() override { return sim_.executor(); }
  runtime::Transport& transport() override { return sim_.transport(); }
  std::string_view backend_name() const override { return "late-cancel+sim"; }
  void advance(runtime::Time duration) override { sim_.advance(duration); }
  bool wait_until(const std::function<bool()>& done, std::size_t max_events) override {
    return sim_.wait_until(done, max_events);
  }

  const LateCancelClock& late_clock() const { return clock_; }

 private:
  runtime::SimRuntime sim_;
  LateCancelClock clock_;
};

std::string jsonl(const obs::TraceRecorder& recorder) {
  std::ostringstream out;
  obs::write_jsonl(recorder, out);
  return out.str();
}

/// The recorded stream passes proto::check_stream (every Fig. 1 / Fig. 2
/// transition is legal and chains on its track, every manager and agent ends
/// running), and every TimerFired follows more arms than cancels and fires of
/// its slot (same track and label).
void expect_legal_stream(const obs::TraceRecorder& recorder) {
  for (const std::string& violation : check_stream(obs::parse_trace(jsonl(recorder)))) {
    ADD_FAILURE() << violation;
  }
  std::map<std::pair<std::int64_t, std::string>, int> armed;
  std::size_t fired = 0;
  for (const obs::Event& e : recorder.events()) {
    if (e.kind == obs::EventKind::TimerArmed) {
      ++armed[{e.track, e.name}];
    } else if (e.kind == obs::EventKind::TimerCancelled) {
      --armed[{e.track, e.name}];
    } else if (e.kind == obs::EventKind::TimerFired) {
      int& slot = armed[{e.track, e.name}];
      EXPECT_GT(slot, 0) << "timer '" << e.name << "' on track " << e.track
                         << " fired after its slot was disarmed (seq " << e.seq << ")";
      --slot;
      ++fired;
    }
  }
  EXPECT_GT(fired, 0U);
}

struct PaperRun {
  core::SafeAdaptationSystem system;
  StubProcess server, handheld, laptop;
  AdaptationResult result;

  static core::SystemConfig lossy() {
    core::SystemConfig config;
    config.control_channel.loss_probability = 0.1;
    config.manager.message_retries = 8;
    return config;
  }

  explicit PaperRun(runtime::Runtime& rt) : system(rt, lossy()) {
    core::configure_paper_system(system);
    system.attach_process(core::kServerProcess, server, 0);
    system.attach_process(core::kHandheldProcess, handheld, 1);
    system.attach_process(core::kLaptopProcess, laptop, 1);
    system.tracer().set_enabled(true);
    system.finalize();
    system.set_current_configuration(core::paper_source(system.registry()));
    system.agent(core::kLaptopProcess).set_fail_to_reset(true);
    result = system.adapt_and_wait(core::paper_target(system.registry()), 10'000'000);
  }

  std::vector<std::string> committed() {
    std::vector<std::string> names;
    for (const StepRecord& step : system.manager().step_log()) {
      if (step.committed) names.push_back(step.action_name);
    }
    return names;
  }
};

TEST(StaleTimerFire, PaperMapOverRefusedCancelsMatchesThePlainSimulator) {
  runtime::SimRuntime plain_rt(2004);
  PaperRun plain(plain_rt);
  LateCancelRuntime late_rt(2004);
  PaperRun late(late_rt);

  EXPECT_EQ(late.result.outcome, plain.result.outcome);
  EXPECT_EQ(late.result.final_config, plain.result.final_config);
  EXPECT_EQ(late.committed(), plain.committed());
  EXPECT_GT(late_rt.late_clock().refused(), 0U);
  EXPECT_EQ(jsonl(late.system.tracer()), jsonl(plain.system.tracer()));

  // Let every refused timer run out: the stale callbacks act on nothing.
  const std::size_t events = late.system.tracer().size();
  late_rt.advance(runtime::seconds(60));
  EXPECT_GT(late_rt.late_clock().late_runs(), 0U);
  EXPECT_EQ(late.system.tracer().size(), events);
  expect_legal_stream(late.system.tracer());
}

struct CompositeRun {
  static constexpr std::size_t kClusters = 4;
  core::CompositeAdaptationSystem system;
  std::vector<std::unique_ptr<StubProcess>> processes;
  config::Configuration source, target;
  core::CompositeResult result;

  static core::CompositeConfig tree() {
    core::CompositeConfig config;
    config.topology.lanes_per_leaf = 1;
    config.topology.fanout = 2;
    return config;
  }

  explicit CompositeRun(runtime::Runtime& rt) : system(rt, tree()) {
    for (std::size_t c = 0; c < kClusters; ++c) {
      const std::string s = std::to_string(c);
      system.registry().add("X" + s, static_cast<config::ProcessId>(c));
      system.registry().add("Y" + s, static_cast<config::ProcessId>(c));
    }
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
    system.tracer().set_enabled(true);
    system.finalize();
    system.set_current_configuration(source);
    result = system.adapt_and_wait(target);
  }
};

TEST(StaleTimerFire, CompositeRequestOverRefusedCancelsMatchesThePlainSimulator) {
  runtime::SimRuntime plain_rt(7);
  CompositeRun plain(plain_rt);
  LateCancelRuntime late_rt(7);
  CompositeRun late(late_rt);

  EXPECT_TRUE(late.result.success);
  EXPECT_EQ(late.result.success, plain.result.success);
  EXPECT_EQ(late.result.final_config, plain.result.final_config);
  EXPECT_EQ(late.result.epoch, plain.result.epoch);
  ASSERT_EQ(late.result.shard_results.size(), plain.result.shard_results.size());
  for (std::size_t i = 0; i < late.result.shard_results.size(); ++i) {
    EXPECT_EQ(late.result.shard_results[i].outcome, plain.result.shard_results[i].outcome);
    EXPECT_EQ(late.result.shard_results[i].final_config,
              plain.result.shard_results[i].final_config);
  }
  EXPECT_GT(late_rt.late_clock().refused(), 0U);
  EXPECT_EQ(jsonl(late.system.tracer()), jsonl(plain.system.tracer()));

  // The refused commit timeouts run out at their 30 s-scale deadlines.
  const std::size_t events = late.system.tracer().size();
  late_rt.advance(runtime::seconds(600));
  EXPECT_GT(late_rt.late_clock().late_runs(), 0U);
  EXPECT_EQ(late.system.tracer().size(), events);
  expect_legal_stream(late.system.tracer());
}

// Arms, re-arms and disarms one slot while the timer thread fires it. A
// fire reaches the owner only while the slot is armed with the generation it
// was scheduled for: never after a disarm, never for a superseded arm.
TEST(ThreadedTimerSlot, ArmAndDisarmWhileTheTimerThreadFires) {
  runtime::ThreadedRuntime rt({.workers = 1, .seed = 3});
  obs::TraceRecorder recorder;
  recorder.set_enabled(true);
  TraceHandle trace(rt.clock());
  trace.attach(&recorder, nullptr, 0);
  std::recursive_mutex mutex;
  std::uint64_t armed_gen = 0;  // the arm a fire may act for; 0 = disarmed
  std::uint64_t arms = 0;
  std::size_t fires = 0;
  std::size_t stale = 0;
  TimerSlot slot(rt.clock(), trace, mutex, [&] {
    if (armed_gen != arms) ++stale;
    armed_gen = 0;
    ++fires;
  });

  Output out;
  out.label = "race";
  for (int i = 0; i < 3000; ++i) {
    {
      std::lock_guard lock(mutex);
      out.delay = runtime::us(i % 4 * 5);
      slot.arm(out);
      armed_gen = ++arms;
    }
    if (i % 3 != 0) std::this_thread::sleep_for(std::chrono::microseconds(i % 7 * 3));
    std::lock_guard lock(mutex);
    if (i % 3 == 1) continue;  // the next arm supersedes this one
    slot.disarm(out);
    armed_gen = 0;
  }
  std::size_t fires_at_end = 0;
  {
    std::lock_guard lock(mutex);
    slot.disarm(out);
    armed_gen = 0;
    fires_at_end = fires;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::lock_guard lock(mutex);
  EXPECT_EQ(stale, 0U);
  EXPECT_GT(fires, 0U);
  EXPECT_EQ(fires, fires_at_end) << "a timer fired after the final disarm";
  std::size_t traced = 0;
  for (const obs::Event& e : recorder.events()) {
    if (e.kind == obs::EventKind::TimerFired) ++traced;
  }
  EXPECT_EQ(traced, fires);
}

}  // namespace
}  // namespace sa::proto
