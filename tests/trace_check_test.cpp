// The recorder-level trace checker (proto::check_stream) and the JSONL reader
// under it.
//
// TraceCheck.* breaks one rule per case on an otherwise conforming stream and
// expects that rule's violation; recorded runs of the paper scenario, a
// composite tree and the fleet (causal and full detail) must conform. Json.*
// pins the reader's exact integers and escapes.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/composite.hpp"
#include "core/fleet.hpp"
#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "obs/export.hpp"
#include "obs/trace_analysis.hpp"
#include "proto/trace_check.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/json.hpp"

namespace sa::proto {
namespace {

using Lines = std::vector<std::string>;

std::string join(const Lines& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

std::vector<std::string> check(const std::string& jsonl) {
  return check_stream(obs::parse_trace(jsonl));
}

std::string recorded(const obs::TraceRecorder& recorder) {
  std::ostringstream out;
  obs::write_jsonl(recorder, out);
  return out.str();
}

void expect_conforms(const std::string& jsonl) {
  for (const std::string& violation : check(jsonl)) ADD_FAILURE() << violation;
}

// One ticket through a root coordinator's epoch into a one-step request on
// one agent: every rule of the checker has something to look at. Line i + 3
// holds event seq i.
const Lines kConforming = {
    R"({"meta":"track_name","track":-101,"name":"coord-d0-0"})",
    R"({"meta":"track_name","track":-1,"name":"manager"})",
    R"({"meta":"track_name","track":0,"name":"agent-p0"})",
    R"({"seq":0,"t":0,"kind":"ticket_submitted","track":-101,"span":1})",
    R"({"seq":1,"t":0,"kind":"coordinator_phase","track":-101,"name":"batching","detail":"idle"})",
    R"({"seq":2,"t":0,"kind":"epoch_opened","track":-101,"epoch":1,"span":2})",
    R"({"seq":3,"t":5,"kind":"epoch_sealed","track":-101,"epoch":1,"span":2})",
    R"({"seq":4,"t":5,"kind":"flow_link","track":-101,"span":2,"parent":1})",
    R"({"seq":5,"t":6,"kind":"adaptation_requested","track":-1,"request":1,"plan":0,"step":0,"attempt":0,"span":3,"parent":2})",
    R"({"seq":6,"t":6,"kind":"manager_phase","track":-1,"name":"preparing","detail":"running"})",
    R"({"seq":7,"t":7,"kind":"manager_phase","track":-1,"name":"adapting","detail":"preparing"})",
    R"({"seq":8,"t":7,"kind":"message_sent","from":0,"to":1,"name":"reset"})",
    R"({"seq":9,"t":7,"kind":"timer_armed","track":-1,"name":"reset timeout","value":1000})",
    R"({"seq":10,"t":8,"kind":"message_delivered","from":0,"to":1,"name":"reset"})",
    R"({"seq":11,"t":8,"kind":"agent_state","track":0,"name":"resetting","detail":"running"})",
    R"({"seq":12,"t":8,"kind":"agent_state","track":0,"name":"safe","detail":"resetting"})",
    R"({"seq":13,"t":8,"kind":"agent_state","track":0,"name":"adapted","detail":"safe"})",
    R"({"seq":14,"t":9,"kind":"manager_phase","track":-1,"name":"adapted","detail":"adapting"})",
    R"({"seq":15,"t":9,"kind":"manager_phase","track":-1,"name":"resuming","detail":"adapted"})",
    R"({"seq":16,"t":10,"kind":"agent_state","track":0,"name":"resuming","detail":"adapted"})",
    R"({"seq":17,"t":10,"kind":"agent_state","track":0,"name":"running","detail":"resuming"})",
    R"({"seq":18,"t":11,"kind":"timer_cancelled","track":-1,"name":"reset timeout"})",
    R"({"seq":19,"t":11,"kind":"blocked_window","track":0,"span":3,"value":2.5})",
    R"({"seq":20,"t":11,"kind":"manager_phase","track":-1,"name":"resumed","detail":"resuming"})",
    R"({"seq":21,"t":11,"kind":"manager_phase","track":-1,"name":"running","detail":"resumed"})",
    R"({"seq":22,"t":11,"kind":"adaptation_finished","track":-1,"span":3,"parent":2,"name":"success"})",
    R"({"seq":23,"t":12,"kind":"epoch_completed","track":-101,"epoch":1,"span":2,"value":7})",
    R"({"seq":24,"t":12,"kind":"ticket_done","track":-101,"span":1,"value":12})",
};

constexpr std::size_t kFirstEvent = 3;

/// Replaces event `seq` of the conforming stream with `line`.
std::function<void(Lines&)> event(std::size_t seq, std::string line) {
  return [seq, line](Lines& lines) { lines[kFirstEvent + seq] = line; };
}

/// A filler event for slot `seq` that no rule looks at.
std::string filler(std::size_t seq, int t) {
  return R"({"seq":)" + std::to_string(seq) + R"(,"t":)" + std::to_string(t) +
         R"(,"kind":"timer_fired","track":-1,"name":"filler"})";
}

struct BadCase {
  const char* name;
  std::function<void(Lines&)> edit;
  const char* expect;  ///< a substring of the violation the case must raise
};

const std::vector<BadCase> kBadCases = {
    {"MetaLineAfterEvents",
     [](Lines& l) { l.insert(l.begin() + kFirstEvent + 1, l[0]); },
     "meta line after the stream's events began"},
    {"MetaLineWithoutName",
     [](Lines& l) { l[1] = R"({"meta":"track_name","track":-1})"; },
     "meta line without a name"},
    {"UnknownMetaKind", [](Lines& l) { l[1] = R"({"meta":"colour","track":-1,"name":"x"})"; },
     "unknown meta kind"},
    {"InvalidJson", event(8, R"({"seq":8,"t":7,"kind":"message_sent","from":0,)"),
     "trace line"},
    {"BadRegion", event(8, R"({"region":"east","seq":8,"t":7,"kind":"message_sent","from":0,"to":1,"name":"reset"})"),
     "bad region"},
    {"SeqNotDense", [](Lines& l) { l.erase(l.begin() + kFirstEvent + 8); }, "is not dense"},
    {"TimestampGoesBack", event(10, R"({"seq":10,"t":6,"kind":"message_delivered","from":0,"to":1,"name":"reset"})"),
     "timestamp went backwards"},
    {"NegativeTimestamp", event(0, R"({"seq":0,"t":-1,"kind":"ticket_submitted","track":-101,"span":1})"),
     "bad timestamp"},
    {"UnknownKind", event(8, R"({"seq":8,"t":7,"kind":"message_teleported","from":0,"to":1,"name":"reset"})"),
     "unknown kind"},
    {"MessageWithoutEndpoints", event(8, R"({"seq":8,"t":7,"kind":"message_sent","from":0,"name":"reset"})"),
     "without integer from/to"},
    {"MessageToItself", event(8, R"({"seq":8,"t":7,"kind":"message_sent","from":1,"to":1,"name":"reset"})"),
     "from == to"},
    {"MessageWithoutType", event(8, R"({"seq":8,"t":7,"kind":"message_sent","from":0,"to":1})"),
     "without a message type name"},
    {"TimerWithoutLabel", event(9, R"({"seq":9,"t":7,"kind":"timer_armed","track":-1,"value":1000})"),
     "timer event without a label"},
    {"ManagerChainBroken", event(7, R"({"seq":7,"t":7,"kind":"manager_phase","track":-1,"name":"preparing","detail":"running"})"),
     "track -1 chain broken"},
    {"IllegalFig2Transition", event(15, R"({"seq":15,"t":9,"kind":"manager_phase","track":-1,"name":"resumed","detail":"adapted"})"),
     "illegal Fig. 2 transition 'adapted' -> 'resumed'"},
    {"AgentChainBroken", event(12, R"({"seq":12,"t":8,"kind":"agent_state","track":0,"name":"resetting","detail":"running"})"),
     "track 0 chain broken"},
    {"IllegalFig1Transition", event(13, R"({"seq":13,"t":8,"kind":"agent_state","track":0,"name":"resuming","detail":"safe"})"),
     "illegal Fig. 1 transition 'safe' -> 'resuming'"},
    {"AgentStateWithoutTrack", event(11, R"({"seq":11,"t":8,"kind":"agent_state","name":"resetting","detail":"running"})"),
     "agent_state event without a non-negative track"},
    {"CoordinatorPhaseWithoutTrack", event(1, R"({"seq":1,"t":0,"kind":"coordinator_phase","name":"batching","detail":"idle"})"),
     "coordinator_phase event without a track"},
    {"CoordinatorPhaseWithoutName", event(1, R"({"seq":1,"t":0,"kind":"coordinator_phase","track":-101,"detail":"idle"})"),
     "coordinator_phase event without a phase name"},
    {"EpochWithoutTrack", event(2, R"({"seq":2,"t":0,"kind":"epoch_opened","epoch":1,"span":2})"),
     "epoch_opened event without a track"},
    {"EpochWithoutNumber", event(2, R"({"seq":2,"t":0,"kind":"epoch_opened","track":-101,"span":2})"),
     "epoch_opened event without an epoch number"},
    {"EpochSealedBeforeOpened", event(3, R"({"seq":3,"t":5,"kind":"epoch_sealed","track":-101,"epoch":2,"span":2})"),
     "epoch_sealed of epoch 2 on track -101 does not follow its epoch_opened"},
    {"EpochsInterleaveOnATrack", event(4, R"({"seq":4,"t":5,"kind":"epoch_opened","track":-101,"epoch":2,"span":4})"),
     "epochs must not interleave per track"},
    {"EpochCompletedUnsealed", event(3, filler(3, 5)),
     "epoch_completed of epoch 1 on track -101 does not follow its epoch_sealed"},
    {"TicketWithoutSpan", event(24, R"({"seq":24,"t":12,"kind":"ticket_done","track":-101,"value":12})"),
     "ticket_done event without the ticket's span id"},
    {"FlowLinkWithoutParent", event(4, R"({"seq":4,"t":5,"kind":"flow_link","track":-101,"span":2})"),
     "flow_link event without span/parent ids"},
    {"FlowLinkToItself", event(4, R"({"seq":4,"t":5,"kind":"flow_link","track":-101,"span":2,"parent":2})"),
     "flow_link event linking span 2 to itself"},
    {"BlockedWindowWithoutDuration", event(19, R"({"seq":19,"t":11,"kind":"blocked_window","track":0,"span":3})"),
     "blocked_window event without a non-negative duration"},
    {"BlockedWindowNegative", event(19, R"({"seq":19,"t":11,"kind":"blocked_window","track":0,"span":3,"value":-1})"),
     "blocked_window event without a non-negative duration"},
    {"DanglingParentSpan", event(5, R"({"seq":5,"t":6,"kind":"adaptation_requested","track":-1,"request":1,"plan":0,"step":0,"attempt":0,"span":3,"parent":99})"),
     "parent span 99 is no event's span"},
    {"ManagerNotBackToRunning", event(21, filler(21, 11)),
     "ends with the manager on track -1 in 'resumed'"},
    {"AgentNotBackToRunning", event(17, filler(17, 10)),
     "ends with the agent on track 0 in 'resuming'"},
    {"EpochOpenAtTheEnd", event(23, filler(23, 12)), "ends with epoch 1 on track -101 still open"},
    {"EmptyTrace", [](Lines& l) { l.resize(kFirstEvent); }, "empty trace"},
    {"RegionTaggedWithoutRootEpochs",
     [](Lines& l) {
       l = {R"({"region":0,"seq":0,"t":0,"kind":"timer_armed","track":-1,"name":"reset timeout"})"};
     },
     "region-tagged trace without root epochs"},
};

TEST(TraceCheck, TheConformingStreamPasses) { expect_conforms(join(kConforming)); }

TEST(TraceCheck, EveryBrokenRuleIsFlagged) {
  for (const BadCase& bad : kBadCases) {
    Lines lines = kConforming;
    bad.edit(lines);
    const std::vector<std::string> violations = check(join(lines));
    bool named = false;
    for (const std::string& violation : violations) {
      named = named || violation.find(bad.expect) != std::string::npos;
    }
    EXPECT_TRUE(named) << bad.name << ": no violation names \"" << bad.expect << "\" among "
                       << violations.size();
  }
}

struct Stub : AdaptableProcess {
  bool prepare(const LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const LocalCommand&) override { return true; }
  bool undo(const LocalCommand&) override { return true; }
  void resume() override {}
};

// §4.4 under loss with a process that cannot reach its safe state: rollbacks,
// re-plans and the parked outcome, every manager and agent back to running.
TEST(TraceCheck, PaperRunWithLossAndFailingProcessConforms) {
  runtime::SimRuntime rt(2004);
  core::SystemConfig config;
  config.control_channel.loss_probability = 0.1;
  config.manager.message_retries = 8;
  core::SafeAdaptationSystem system(rt, config);
  core::configure_paper_system(system);
  Stub server, handheld, laptop;
  system.attach_process(core::kServerProcess, server, 0);
  system.attach_process(core::kHandheldProcess, handheld, 1);
  system.attach_process(core::kLaptopProcess, laptop, 1);
  system.tracer().set_enabled(true);
  system.finalize();
  system.set_current_configuration(core::paper_source(system.registry()));
  system.agent(core::kLaptopProcess).set_fail_to_reset(true);
  system.adapt_and_wait(core::paper_target(system.registry()), 10'000'000);
  expect_conforms(recorded(system.tracer()));
}

// A 4-cluster composite under a 3-level coordinator tree at full detail:
// every shard manager and agent chains on its own track.
TEST(TraceCheck, CompositeTreeRunConforms) {
  runtime::SimRuntime rt(7);
  core::CompositeConfig config;
  config.topology.lanes_per_leaf = 1;
  config.topology.fanout = 2;
  core::CompositeAdaptationSystem system(rt, config);
  std::vector<std::unique_ptr<Stub>> processes;
  config::Configuration source, target;
  for (std::size_t c = 0; c < 4; ++c) {
    const std::string s = std::to_string(c);
    system.registry().add("X" + s, static_cast<config::ProcessId>(c));
    system.registry().add("Y" + s, static_cast<config::ProcessId>(c));
    system.add_invariant("one" + s, "one(X" + s + ", Y" + s + ")");
    system.add_action("swap" + s, {"X" + s}, {"Y" + s}, 10);
    processes.push_back(std::make_unique<Stub>());
    system.attach_process(static_cast<config::ProcessId>(c), *processes.back(), 0);
    source = source.with(static_cast<config::ComponentId>(2 * c));
    target = target.with(static_cast<config::ComponentId>(2 * c + 1));
  }
  system.tracer().set_detail(obs::TraceDetail::Full);
  system.tracer().set_enabled(true);
  system.finalize();
  system.set_current_configuration(source);
  EXPECT_TRUE(system.adapt_and_wait(target).success);
  expect_conforms(recorded(system.tracer()));
}

std::string fleet_trace(bool full) {
  core::FleetSpec spec;
  spec.clusters = 64;
  spec.trace = true;
  spec.trace_full = full;
  spec.trace_capacity = 1 << 12;
  const core::FleetReport report = core::run_fleet(spec);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.trace_dropped, 0U);
  std::string jsonl;
  for (const core::RegionReport& region : report.regions) jsonl += region.trace_jsonl;
  return jsonl;
}

TEST(TraceCheck, CausalFleetTraceConforms) { expect_conforms(fleet_trace(false)); }

// Full detail adds every manager phase, agent state and timer of the 64
// clusters' shards; each chains on its own track.
TEST(TraceCheck, FullDetailFleetTraceConforms) {
  const std::string jsonl = fleet_trace(true);
  EXPECT_NE(jsonl.find(R"("kind":"manager_phase")"), std::string::npos);
  expect_conforms(jsonl);
}

// --- util::parse_json under the trace reader --------------------------------

TEST(Json, SpanIdAboveTwoToThe53ParsesExactly) {
  constexpr std::uint64_t kSpan = 18446744073709551557ULL;  // 2^64 - 59
  const util::JsonValue value = util::parse_json("18446744073709551557");
  ASSERT_TRUE(value.is_integer);
  EXPECT_EQ(value.integer, kSpan);

  const auto line = obs::parse_trace_line(
      R"({"seq":0,"t":0,"kind":"flow_link","track":-101,"span":18446744073709551557,"parent":1})");
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->error, "");
  EXPECT_EQ(line->event.span, kSpan);
  EXPECT_EQ(line->event.track, -101);
}

TEST(Json, ControlByteRoundTripsThroughJsonEscape) {
  const std::string text = "a\x01z\n";
  const std::string escaped = obs::json_escape(text);
  EXPECT_EQ(escaped, "a\\u0001z\\n");
  EXPECT_EQ(util::parse_json("\"" + escaped + "\"").string, text);
}

TEST(Json, TraceLineWhoseStringEndsInEscapedBackslashParses) {
  const auto line = obs::parse_trace_line(
      R"({"seq":0,"t":0,"kind":"timer_armed","track":-1,"name":"C:\\"})");
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->error, "");
  EXPECT_EQ(line->event.name, "C:\\");
}

}  // namespace
}  // namespace sa::proto
