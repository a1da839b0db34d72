// Observability layer tests: metrics registry semantics, trace recorder
// determinism, exporter output, and conformance of recorded phase/state
// transitions with the Figure 1 / Figure 2 automata.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_analysis.hpp"
#include "obs/trace_recorder.hpp"
#include "proto/trace_check.hpp"
#include "runtime/threaded_runtime.hpp"

namespace sa::obs {
namespace {

// --- MetricsRegistry ---------------------------------------------------------

TEST(Metrics, CounterGetOrCreateReturnsSameSeries) {
  MetricsRegistry registry;
  Counter& a = registry.counter("requests", {{"kind", "x"}});
  Counter& b = registry.counter("requests", {{"kind", "x"}});
  Counter& other = registry.counter("requests", {{"kind", "y"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(other.value(), 0u);
}

TEST(Metrics, TypeConflictThrows) {
  MetricsRegistry registry;
  registry.counter("m");
  EXPECT_THROW(registry.gauge("m"), std::logic_error);
  EXPECT_THROW(registry.histogram("m", {1.0}), std::logic_error);
}

TEST(Metrics, HistogramBucketsAndSum) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("latency", {10, 100, 1000});
  h.observe(5);     // bucket 0
  h.observe(10);    // bucket 0 (inclusive upper bound)
  h.observe(50);    // bucket 1
  h.observe(5000);  // overflow bucket
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 0u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 5065.0);
  EXPECT_EQ(snap.count, 4u);
}

TEST(Metrics, HistogramRejectsUnsortedBounds) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.histogram("bad", {10, 5}), std::invalid_argument);
}

TEST(Metrics, HistogramFamilySumSpansLabelSets) {
  MetricsRegistry registry;
  registry.histogram("blocked", {100}, {{"process", "0"}}).observe(30);
  registry.histogram("blocked", {100}, {{"process", "1"}}).observe(12);
  EXPECT_DOUBLE_EQ(registry.histogram_family_sum("blocked"), 42.0);
  EXPECT_DOUBLE_EQ(registry.histogram_family_sum("missing"), 0.0);
}

TEST(Metrics, PrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("sa_test_total", {{"kind", "a"}}, "help text").inc(3);
  registry.histogram("sa_test_latency", {10, 100}, {}, "latency").observe(50);
  std::ostringstream out;
  write_prometheus(registry, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# HELP sa_test_total help text"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sa_test_total counter"), std::string::npos);
  EXPECT_NE(text.find("sa_test_total{kind=\"a\"} 3"), std::string::npos);
  // Cumulative buckets: the le="100" bucket includes the le="10" count.
  EXPECT_NE(text.find("sa_test_latency_bucket{le=\"10\"} 0"), std::string::npos);
  EXPECT_NE(text.find("sa_test_latency_bucket{le=\"100\"} 1"), std::string::npos);
  EXPECT_NE(text.find("sa_test_latency_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("sa_test_latency_sum 50"), std::string::npos);
  EXPECT_NE(text.find("sa_test_latency_count 1"), std::string::npos);
}

// --- TraceRecorder -----------------------------------------------------------

TEST(TraceRecorder, DisabledRecorderDropsEvents) {
  TraceRecorder recorder;
  Event e;
  e.kind = EventKind::StepStarted;
  recorder.record(e);
  EXPECT_EQ(recorder.size(), 0u);
  recorder.set_enabled(true);
  recorder.record(e);
  recorder.record(e);
  EXPECT_EQ(recorder.size(), 2u);
  const auto events = recorder.events();
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
}

// --- End-to-end over the paper scenario --------------------------------------

struct StubProcess : proto::AdaptableProcess {
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override { return true; }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override {}
};

struct PaperRun {
  core::SafeAdaptationSystem system;
  StubProcess server, handheld, laptop;
  proto::AdaptationResult result;

  explicit PaperRun(core::SystemConfig config = {}) : system(config) {
    core::configure_paper_system(system);
    system.attach_process(core::kServerProcess, server, 0);
    system.attach_process(core::kHandheldProcess, handheld, 1);
    system.attach_process(core::kLaptopProcess, laptop, 1);
    system.tracer().set_enabled(true);
    system.finalize();
    system.set_current_configuration(core::paper_source(system.registry()));
    result = system.adapt_and_wait(core::paper_target(system.registry()));
  }
};

TEST(TraceExport, JsonlByteIdenticalAcrossSameSeedRuns) {
  std::string first, second;
  {
    PaperRun run;
    ASSERT_EQ(run.result.outcome, proto::AdaptationOutcome::Success);
    std::ostringstream out;
    write_jsonl(run.system.tracer(), out);
    first = out.str();
  }
  {
    PaperRun run;
    std::ostringstream out;
    write_jsonl(run.system.tracer(), out);
    second = out.str();
  }
  EXPECT_FALSE(first.empty());
  const auto lines = static_cast<std::size_t>(std::count(first.begin(), first.end(), '\n'));
  EXPECT_GT(lines, 100u) << "expected a rich event trace";
  EXPECT_EQ(first, second);
}

/// Every recorded Fig. 1 / Fig. 2 transition chains on its track and follows
/// an edge of its automaton (proto::check_stream over the exported JSONL).
void expect_conforming_trace(const TraceRecorder& recorder) {
  std::ostringstream out;
  write_jsonl(recorder, out);
  for (const std::string& violation : proto::check_stream(parse_trace(out.str()))) {
    ADD_FAILURE() << violation;
  }
}

TEST(TraceConformance, ManagerPhaseSequenceMatchesFig2) {
  PaperRun run;
  ASSERT_EQ(run.result.outcome, proto::AdaptationOutcome::Success);
  expect_conforming_trace(run.system.tracer());

  // The happy-path 5-step MAP produces the exact Fig. 2 cycle per step.
  std::vector<std::string> names;
  for (const Event& e : run.system.tracer().events()) {
    if (e.kind == EventKind::ManagerPhase) names.push_back(e.name);
  }
  std::vector<std::string> expected{"preparing"};
  for (int step = 0; step < 5; ++step) {
    expected.insert(expected.end(), {"adapting", "adapted", "resuming", "resumed"});
  }
  expected.push_back("running");
  EXPECT_EQ(names, expected);
}

TEST(TraceConformance, AgentStateSequencesMatchFig1) {
  PaperRun run;
  ASSERT_EQ(run.result.outcome, proto::AdaptationOutcome::Success);
  expect_conforming_trace(run.system.tracer());

  std::map<std::int64_t, std::size_t> transitions;  // per agent track
  for (const Event& e : run.system.tracer().events()) {
    if (e.kind == EventKind::AgentState) ++transitions[e.track];
  }
  EXPECT_EQ(transitions.size(), 3u) << "all three processes should appear";
  // 5 sole-participant steps: running->resetting->safe->adapted->resuming->running.
  std::size_t total = 0;
  for (const auto& [track, count] : transitions) total += count;
  EXPECT_EQ(total, 5u * 5u);
}

TEST(TraceExport, ChromeTraceHasOneTrackPerEntity) {
  PaperRun run;
  std::ostringstream out;
  write_chrome_trace(run.system.tracer(), out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* track : {"\"manager\"", "\"agent-p0\"", "\"agent-p1\"", "\"agent-p2\""}) {
    EXPECT_NE(json.find(track), std::string::npos) << track;
  }
  // Thread-name metadata plus at least one complete slice and async span.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
}

TEST(TraceExport, MessageEventsCarryEndpointsInJsonl) {
  PaperRun run;
  bool saw_message = false;
  for (const Event& e : run.system.tracer().events()) {
    if (!is_message_event(e.kind)) continue;
    saw_message = true;
    EXPECT_NE(e.from, e.to);
    EXPECT_FALSE(e.name.empty()) << "message events carry the message type";
  }
  EXPECT_TRUE(saw_message);
}

TEST(Metrics, BlockedHistogramAgreesWithManagerTotalOnSim) {
  PaperRun run;
  ASSERT_EQ(run.result.outcome, proto::AdaptationOutcome::Success);
  const double histogram_total = run.system.metrics().histogram_family_sum("sa_blocked_time_us");
  EXPECT_DOUBLE_EQ(histogram_total,
                   static_cast<double>(run.system.manager().total_blocked_reported()));
  EXPECT_GT(histogram_total, 0.0);
}

TEST(Metrics, MessageCountersMatchOutcome) {
  PaperRun run;
  // 5 sole-participant steps: reset + resume out, reset/adapt/resume done (+
  // duplicate resume-done re-acks) back. Exact counts are seed-dependent;
  // sanity-check the counter family exists and is consistent with the trace.
  std::size_t sent_events = 0;
  for (const Event& e : run.system.tracer().events()) {
    sent_events += e.kind == EventKind::MessageSent;
  }
  std::uint64_t sent_counter = 0;
  for (const auto& family : run.system.metrics().snapshot()) {
    if (family.name != "sa_messages_total") continue;
    for (const auto& series : family.series) {
      if (series.labels.find("event=\"sent\"") != std::string::npos) {
        sent_counter += static_cast<std::uint64_t>(series.value);
      }
    }
  }
  EXPECT_GT(sent_events, 0u);
  EXPECT_EQ(sent_counter, sent_events);
}

// Named "Threaded..." so the CI TSan job (-R 'Threaded|RuntimeEquivalence')
// races the instrumentation paths: manager/agent/transport record into the
// shared recorder and registry from worker, timer, and main threads.
TEST(ThreadedObservability, BlockedHistogramAndTraceOnThreadedBackend) {
  runtime::ThreadedRuntime rt({.workers = 4, .seed = 42});
  proto::AdaptationResult result;
  double histogram_total = 0;
  runtime::Time manager_total = 0;
  std::size_t events = 0;
  {
    core::SafeAdaptationSystem system(rt);
    core::configure_paper_system(system);
    StubProcess server, handheld, laptop;
    system.attach_process(core::kServerProcess, server, 0);
    system.attach_process(core::kHandheldProcess, handheld, 1);
    system.attach_process(core::kLaptopProcess, laptop, 1);
    system.tracer().set_enabled(true);
    system.finalize();
    system.set_current_configuration(core::paper_source(system.registry()));
    result = system.adapt_and_wait(core::paper_target(system.registry()));
    histogram_total = system.metrics().histogram_family_sum("sa_blocked_time_us");
    manager_total = system.manager().total_blocked_reported();
    events = system.tracer().size();

    // The trace is ordered by append; per-track timestamps must not regress.
    std::map<std::int64_t, runtime::Time> last_time;
    for (const Event& e : system.tracer().events()) {
      if (e.track == kNoTrack) continue;
      auto [it, inserted] = last_time.emplace(e.track, e.time);
      EXPECT_LE(it->second, e.time);
      it->second = e.time;
    }
  }
  rt.shutdown();
  EXPECT_EQ(result.outcome, proto::AdaptationOutcome::Success);
  EXPECT_DOUBLE_EQ(histogram_total, static_cast<double>(manager_total));
  EXPECT_GT(histogram_total, 0.0);
  EXPECT_GT(events, 50u);
}

// --- Flight recorder (seqlock rings, wrap, tail, detail filter) --------------

Event make_event(EventKind kind, runtime::Time time, std::string name) {
  Event e;
  e.kind = kind;
  e.time = time;
  e.track = kManagerTrack;
  e.name = std::move(name);
  return e;
}

TEST(TraceRecorder, RingWrapDropsOldestAndCounts) {
  TraceRecorder recorder;
  recorder.set_capacity(8);
  recorder.set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    recorder.record(make_event(EventKind::StepStarted, i, "e" + std::to_string(i)));
  }
  EXPECT_EQ(recorder.size(), 8u);
  EXPECT_EQ(recorder.dropped(), 12u);
  const std::vector<Event> events = recorder.events();
  ASSERT_EQ(events.size(), 8u);
  // Drop-oldest: what survives is exactly the most recent window.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, static_cast<runtime::Time>(12 + i));
    EXPECT_EQ(events[i].seq, i) << "merge assigns a dense seq";
  }
}

TEST(TraceRecorder, TailReturnsMostRecentMergedEvents) {
  TraceRecorder recorder;
  recorder.set_capacity(64);
  recorder.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    recorder.record(make_event(EventKind::StepCommitted, i, "e" + std::to_string(i)));
  }
  const std::vector<Event> tail = recorder.tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].name, "e7");
  EXPECT_EQ(tail[2].name, "e9");
  // Asking for more than exists returns everything, oldest first.
  EXPECT_EQ(recorder.tail(100).size(), 10u);
  EXPECT_EQ(recorder.tail(100).front().name, "e0");
}

TEST(TraceRecorder, DetailFilterKeepsOnlyCausalKinds) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.set_detail(TraceDetail::Causal);
  EXPECT_TRUE(recorder.wants(EventKind::TicketSubmitted));
  EXPECT_TRUE(recorder.wants(EventKind::EpochCompleted));
  EXPECT_TRUE(recorder.wants(EventKind::BlockedWindow));
  EXPECT_FALSE(recorder.wants(EventKind::TimerArmed));
  EXPECT_FALSE(recorder.wants(EventKind::MessageSent));
  EXPECT_FALSE(recorder.wants(EventKind::ManagerPhase));
  // record() itself is the backstop for sites that only check enabled().
  recorder.record(make_event(EventKind::TimerArmed, 1, "filtered"));
  recorder.record(make_event(EventKind::TicketDone, 2, "kept"));
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.events()[0].name, "kept");
  // Back to Full: everything records again, and a disabled recorder wants
  // nothing regardless of the mask.
  recorder.set_detail(TraceDetail::Full);
  recorder.record(make_event(EventKind::TimerArmed, 3, "full"));
  EXPECT_EQ(recorder.size(), 2u);
  recorder.set_enabled(false);
  EXPECT_FALSE(recorder.wants(EventKind::TicketDone));
}

TEST(TraceRecorder, TruncatesOverlongStringsDeterministically) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  Event e = make_event(EventKind::StepStarted, 0, std::string(300, 'n'));
  e.detail = std::string(300, 'd');
  recorder.record(e);
  recorder.record(e);
  const std::vector<Event> events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name.size(), detail::kNameCap);
  EXPECT_EQ(events[0].detail.size(), detail::kDetailCap);
  EXPECT_EQ(events[0].name, events[1].name);
  EXPECT_EQ(events[0].detail, events[1].detail);
}

// Named "Threaded..." so the CI TSan job (-R 'Threaded|RuntimeEquivalence')
// races many producer rings against concurrent readers.
TEST(ThreadedFlightRecorder, ManyProducersMergeDeterministically) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  TraceRecorder recorder;
  recorder.set_capacity(1 << 9);  // 512 >= kPerThread: nothing wraps
  recorder.set_enabled(true);
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Distinct times, so the merged order is a pure function of the
        // event set, independent of ring registration order.
        recorder.record(make_event(EventKind::TicketDone, t * 1000 + i,
                                   "t" + std::to_string(t) + "." + std::to_string(i)));
      }
    });
  }
  for (std::thread& p : producers) p.join();
  EXPECT_EQ(recorder.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(recorder.dropped(), 0u);
  const std::vector<Event> first = recorder.events();
  const std::vector<Event> second = recorder.events();
  ASSERT_EQ(first.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].seq, i);
    EXPECT_EQ(first[i].name, second[i].name);
    if (i) {
      EXPECT_LE(first[i - 1].time, first[i].time) << "merged by time";
    }
  }
  const std::vector<Event> tail = recorder.tail(5);
  ASSERT_EQ(tail.size(), 5u);
  EXPECT_EQ(tail.back().name, first.back().name);
}

TEST(ThreadedFlightRecorder, ReadersNeverBlockWrappingProducers) {
  constexpr int kThreads = 3;
  constexpr int kPerThread = 5000;
  TraceRecorder recorder;
  recorder.set_capacity(32);  // tiny: every producer wraps constantly
  recorder.set_enabled(true);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Concurrent reads must see only whole slots — torn slots are skipped
    // and counted, never surfaced as garbage events.
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Event& e : recorder.tail(16)) {
        EXPECT_EQ(e.kind, EventKind::BlockedWindow);
        EXPECT_EQ(e.name, "w");
      }
      (void)recorder.size();
    }
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.record(make_event(EventKind::BlockedWindow, t * 100000 + i, "w"));
      }
    });
  }
  for (std::thread& p : producers) p.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_LE(recorder.size(), static_cast<std::size_t>(kThreads) * 32);
  EXPECT_GE(recorder.dropped() + recorder.size(), total);
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceExport, TailJsonlOverloadEmitsEventSchemaWithoutMeta) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  Event e = make_event(EventKind::TicketDone, 7, "ticket");
  e.span = 42;
  e.value = 3.5;
  e.has_value = true;
  recorder.record(e);
  std::ostringstream out;
  write_jsonl(recorder.tail(8), out);
  const std::string text = out.str();
  EXPECT_EQ(text.find("\"meta\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"ticket_done\""), std::string::npos);
  EXPECT_NE(text.find("\"span\":42"), std::string::npos);
  EXPECT_NE(text.find("\"value\":3.5"), std::string::npos);
}

}  // namespace
}  // namespace sa::obs
