#include "inject/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "check/explorer.hpp"  // fault_from_string / to_string(ManagerFault)
#include "core/composite.hpp"
#include "core/paper_scenario.hpp"
#include "core/supervisor.hpp"
#include "core/system.hpp"
#include "core/video_testbed.hpp"
#include "inject/faulty_runtime.hpp"
#include "obs/export.hpp"  // json_escape
#include "proto/conformance.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/json.hpp"

namespace sa::inject {

namespace {

/// Distinct seed streams: the plan generator and the fault decorator must not
/// share the SimRuntime's stream, so editing a plan (shrinking) never
/// perturbs the base execution's channel randomness.
constexpr std::uint64_t kPlanStream = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kFaultStream = 0xbf58476d1ce4e5b9ULL;

/// Always-succeeding AdaptableProcess for the protocol-only "paper" scenario;
/// failures come from the fault decorators and agent-level fail-to-reset, so
/// the campaign exercises the drivers, not a scripted stub.
struct StubProcess final : proto::AdaptableProcess {
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override { return true; }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override {}
};

const std::vector<config::ProcessId>& paper_processes() {
  static const std::vector<config::ProcessId> processes{
      core::kServerProcess, core::kHandheldProcess, core::kLaptopProcess};
  return processes;
}

/// Every campaign run keeps the flight recorder armed at full detail over a
/// small drop-oldest ring: when an oracle fires, the most recent protocol
/// events are already in memory and run_* serializes them into
/// RunResult::trace_tail for the artifact dump. Clean runs pay ~a ring of
/// slots and never serialize.
constexpr std::size_t kRecorderSlots = 512;
constexpr std::size_t kTailEvents = 256;

void arm_recorder(obs::TraceRecorder& tracer) {
  tracer.set_capacity(kRecorderSlots);
  tracer.set_enabled(true);
}

void capture_tail(const obs::TraceRecorder& tracer, RunResult& out) {
  if (out.violations.empty()) return;
  std::ostringstream tail;
  obs::write_jsonl(tracer.tail(kTailEvents), tail);
  out.trace_tail = tail.str();
}

/// The paper and video scenarios target agent processes: a partition pair
/// cuts the manager <-> agent link, node faults take out the agent.
PlanTargets agent_targets(core::SafeAdaptationSystem& system) {
  return PlanTargets{
      [&system](config::ProcessId process) {
        return std::pair{system.manager_node(), system.agent_node(process)};
      },
      [&system](config::ProcessId process, bool open) {
        system.agent(process).set_fail_to_reset(open);
      }};
}

runtime::Time plan_horizon(const FaultPlan& plan) {
  runtime::Time horizon = 0;
  for (const FaultEvent& event : plan.events) horizon = std::max(horizon, event.end);
  return horizon;
}

/// What a finished paper or video run left behind, in backend-neutral terms.
/// The sim path reads it off the in-process system, the socket path off the
/// supervisor's report; check_terminal() runs the same oracles over both.
struct TerminalSummary {
  const config::ComponentRegistry& registry;
  const config::InvariantSet& invariants;
  const actions::ActionTable& actions;
  config::Configuration source;
  config::Configuration target;
  /// Where the system rests; unknown when no node reported back.
  std::optional<config::Configuration> resting;
  /// The manager's reported outcome and final configuration; the outcome is
  /// empty when the request never reported one (then `resting` may be unset).
  std::string outcome;
  config::Configuration reported;
  /// (label, proto::to_string(AgentState)) per agent.
  std::vector<std::pair<std::string, std::string>> agents;
  /// Names of the committed steps, in commit order.
  std::vector<std::string> committed;
  const std::vector<runtime::TraceEntry>& trace;  ///< delivered control messages
  runtime::NodeId manager_node;
};

/// Runs every post-termination oracle; each violation is prefixed with its
/// class ("unsafe-rest:", "conformance:", ...) so shrinking can match by
/// failure class instead of exact message text.
void check_terminal(const TerminalSummary& run, std::vector<std::string>& violations) {
  const auto& registry = run.registry;
  const auto violate = [&violations](const std::string& what) { violations.push_back(what); };

  // -- the system rests only in safe configurations ---------------------------
  if (run.resting && !run.invariants.satisfied(*run.resting)) {
    violate("unsafe-rest: terminal configuration " + run.resting->describe(registry) +
            " violates an invariant");
  }

  if (!run.outcome.empty() && run.resting) {
    const config::Configuration& resting = *run.resting;
    const config::Configuration& reported = run.reported;
    if (!(reported == resting)) {
      violate("unsafe-rest: manager rests at " + resting.describe(registry) +
              " but reported final configuration " + reported.describe(registry));
    }

    // -- terminal outcome in the §4.4 legal set -------------------------------
    std::vector<std::string> not_running;
    for (const auto& [label, state] : run.agents) {
      if (state != proto::to_string(proto::AgentState::Running)) not_running.push_back(label);
    }
    for (const std::string& what :
         proto::outcome_violations(run.outcome, reported, run.source, run.target, registry)) {
      violate("illegal-outcome: " + what);
    }
    for (const std::string& what : proto::outcome_agent_violations(run.outcome, not_running)) {
      violate("illegal-outcome: " + what);
    }

    // -- committed step log replays from source to the terminal config --------
    config::Configuration replayed = run.source;
    bool replay_ok = true;
    for (const std::string& name : run.committed) {
      const auto id = run.actions.find(name);
      if (!id) {
        violate("step-replay: committed step names unknown action " + name);
        replay_ok = false;
        break;
      }
      const actions::AdaptiveAction& action = run.actions.action(*id);
      if (!action.applicable_to(replayed)) {
        violate("step-replay: committed action " + name + " is not applicable to " +
                replayed.describe(registry));
        replay_ok = false;
        break;
      }
      replayed = action.apply(replayed);
      if (!run.invariants.satisfied(replayed)) {
        violate("step-replay: committed action " + name +
                " passes through unsafe configuration " + replayed.describe(registry));
      }
    }
    if (replay_ok && !(replayed == reported)) {
      violate("step-replay: committed steps replay to " + replayed.describe(registry) +
              " but the manager reported " + reported.describe(registry));
    }
  }

  // -- delivered control trace obeys the protocol-safety rules ----------------
  for (const proto::SafetyViolation& v : proto::check_trace(run.trace, {run.manager_node})) {
    violate("conformance: " + v.description);
  }
}

/// The sim path's summary plus its one in-process-only oracle: the obs
/// metrics must agree with the manager's own accounting.
void check_oracles(core::SafeAdaptationSystem& system, const FaultyRuntime& frt,
                   const config::Configuration& source, const config::Configuration& target,
                   const std::optional<proto::AdaptationResult>& result,
                   std::vector<std::string>& violations) {
  TerminalSummary run{system.registry(),
                      system.invariants(),
                      system.action_table(),
                      source,
                      target,
                      system.current_configuration(),
                      result ? std::string(proto::to_string(result->outcome)) : std::string(),
                      result ? result->final_config : config::Configuration{},
                      {},
                      {},
                      frt.faulty_transport().trace(),
                      system.manager_node()};
  for (const config::ProcessId process : paper_processes()) {
    run.agents.emplace_back(std::to_string(process),
                            std::string(proto::to_string(system.agent(process).state())));
  }
  for (const proto::StepRecord& record : system.manager().step_log()) {
    if (record.committed) run.committed.push_back(record.action_name);
  }
  check_terminal(run, violations);

  const double histogram = system.metrics().histogram_family_sum("sa_blocked_time_us");
  const auto reported = static_cast<double>(system.manager().total_blocked_reported());
  if (histogram != reported) {
    violations.push_back("metrics-mismatch: sa_blocked_time_us sums to " +
                         std::to_string(histogram) + " but the manager reported " +
                         std::to_string(reported) + "us blocked");
  }
}

RunResult run_paper(std::uint64_t seed, const FaultPlan& plan, const CampaignOptions& options,
                    core::PaperActionSet action_set) {
  runtime::SimRuntime sim(seed);
  FaultyRuntime frt(sim, seed ^ kFaultStream);

  core::SystemConfig config;
  config.seed = seed;
  core::SafeAdaptationSystem system(frt, config);
  arm_recorder(system.tracer());
  core::configure_paper_system(system, action_set);
  StubProcess server, handheld, laptop;
  system.attach_process(core::kServerProcess, server, /*stage=*/0);
  system.attach_process(core::kHandheldProcess, handheld, /*stage=*/1);
  system.attach_process(core::kLaptopProcess, laptop, /*stage=*/1);
  system.finalize();

  const config::Configuration source = core::paper_source(system.registry());
  const config::Configuration target = core::paper_target(system.registry());
  system.set_current_configuration(source);
  if (options.fault != proto::ManagerFault::None) system.manager().inject_fault(options.fault);

  frt.faulty_transport().set_tracing(true);
  arm_plan(plan, frt, agent_targets(system));

  RunResult out;
  std::optional<proto::AdaptationResult> result;
  try {
    result = system.adapt_and_wait(target, options.max_events);
    out.outcome = proto::to_string(result->outcome);
  } catch (const std::runtime_error& e) {
    out.outcome = "did-not-terminate";
    out.violations.push_back(std::string("non-termination: ") + e.what());
  }
  // Drain past the last fault window plus a grace period so trailing
  // retransmissions, duplicates, and window-close callbacks all land before
  // the oracles read the terminal state.
  const runtime::Time horizon = plan_horizon(plan) + runtime::ms(20);
  if (horizon > sim.clock().now()) frt.advance(horizon - sim.clock().now());

  check_oracles(system, frt, source, target, result, out.violations);
  capture_tail(system.tracer(), out);
  return out;
}

/// Socket backend: the same seed -> plan -> run -> oracles contract, but the
/// run is core::run_distributed_paper — real OS processes over loopback
/// sockets. Crash windows become the supervisor's kill -9 / re-exec; every
/// other window is armed by the nodes themselves on their fault decorators.
/// check_terminal runs over a summary of the supervisor's report and merged
/// wall-clock trace; metrics-mismatch does not apply (there is no
/// cross-process obs registry to compare against), and infra failures
/// surface as the "supervisor:" violation class.
RunResult run_socket_paper(std::uint64_t seed, const FaultPlan& plan,
                           const CampaignOptions& options) {
  core::DistributedOptions dopt;
  dopt.seed = seed;
  dopt.sa_node = options.sa_node;
  if (options.fault != proto::ManagerFault::None) {
    dopt.manager_fault = check::to_string(options.fault);
  }
  FaultPlan node_plan;
  for (const FaultEvent& event : plan.events) {
    if (event.kind == FaultKind::Crash) {
      dopt.crashes.push_back(core::CrashWindow{
          event.start, event.end,
          core::distributed_paper_nodes()[static_cast<std::size_t>(event.process) + 1]});
    } else {
      node_plan.events.push_back(event);
    }
  }
  if (!node_plan.events.empty()) dopt.plan_json = to_json(node_plan);
  dopt.max_wait = runtime::seconds(30);

  const core::DistributedReport report = core::run_distributed_paper(dopt);

  RunResult out;
  out.outcome = report.outcome.empty() ? "did-not-terminate" : report.outcome;
  const auto violate = [&out](const std::string& what) { out.violations.push_back(what); };
  for (const std::string& error : report.infra_errors) violate(error);

  if (report.outcome.empty()) {
    violate("non-termination: the distributed manager never reported an outcome");
  } else if (report.outcome == "did-not-terminate") {
    violate("non-termination: the adaptation did not terminate within the real-time cap");
  }

  const core::PaperScenario scenario = core::make_paper_scenario();
  TerminalSummary run{*scenario.registry,
                      *scenario.invariants,
                      *scenario.actions,
                      scenario.source,
                      scenario.target,
                      std::nullopt,
                      report.outcome,
                      config::Configuration(report.final_config_bits),
                      {report.agent_states.begin(), report.agent_states.end()},
                      report.committed_actions,
                      report.merged_trace,
                      runtime::NodeId{0}};
  // result.json carries one configuration: where the manager rests is what it
  // reported.
  if (!report.outcome.empty()) run.resting = run.reported;
  check_terminal(run, out.violations);
  return out;
}

RunResult run_video(std::uint64_t seed, const FaultPlan& plan, const CampaignOptions& options) {
  runtime::SimRuntime sim(seed);
  FaultyRuntime frt(sim, seed ^ kFaultStream);

  core::TestbedConfig config;
  config.system.seed = seed;
  config.runtime = &frt;
  core::VideoTestbed testbed(config);
  core::SafeAdaptationSystem& system = testbed.system();
  arm_recorder(system.tracer());

  const config::Configuration source = testbed.source();
  const config::Configuration target = testbed.target();
  if (options.fault != proto::ManagerFault::None) system.manager().inject_fault(options.fault);

  frt.faulty_transport().set_tracing(true);
  arm_plan(plan, frt, agent_targets(system));

  testbed.start_stream();
  RunResult out;
  std::optional<proto::AdaptationResult> result;
  try {
    result = system.adapt_and_wait(target, options.max_events);
    out.outcome = proto::to_string(result->outcome);
  } catch (const std::runtime_error& e) {
    out.outcome = "did-not-terminate";
    out.violations.push_back(std::string("non-termination: ") + e.what());
  }
  testbed.stop_stream();
  const runtime::Time horizon = plan_horizon(plan) + runtime::ms(20);
  if (horizon > sim.clock().now()) frt.advance(horizon - sim.clock().now());

  check_oracles(system, frt, source, target, result, out.violations);

  // -- adaptation invisible to the application --------------------------------
  if (testbed.total_intact() == 0) {
    // Liveness guard for the oracle itself: zero decoded packets means the
    // stream never played and "no corruption" would be vacuous.
    out.violations.push_back("video-corruption: no intact packets decoded; stream never played");
  }
  if (testbed.total_corrupted() != 0 || testbed.total_undecodable() != 0) {
    out.violations.push_back("video-corruption: clients decoded " +
                             std::to_string(testbed.total_corrupted()) + " corrupted and " +
                             std::to_string(testbed.total_undecodable()) +
                             " undecodable packets");
  }
  if (result.has_value() && result->outcome == proto::AdaptationOutcome::Success &&
      !(testbed.installed_configuration() == result->final_config)) {
    out.violations.push_back(
        "video-corruption: installed filter chains are " +
        testbed.installed_configuration().describe(system.registry()) +
        " but the manager reported " + result->final_config.describe(system.registry()));
  }
  capture_tail(system.tracer(), out);
  return out;
}

/// The "fleet" scenario: an 8-cluster composite under a 3-level manager tree
/// (lanes_per_leaf = 2, fanout = 2 -> 4 leaves, 2 interior nodes, 1 root) on
/// the fault decorators. FaultEvent.process is REINTERPRETED as an index into
/// coordinator_links() (mod link count): PartitionPair cuts that parent<->child
/// link, PartitionNode / Crash / FailToReset take out the link's child
/// coordinator node. Coordinators do not retransmit commits, so a cut link
/// orphans its subtree's shards at the commit timeout — the §4.4 contract the
/// oracles then verify per shard: orphaned shards must have rolled back
/// cleanly (or committed locally, with only the report lost), never rest
/// half-adapted, and never block a disjoint shard's commit.
RunResult run_fleet(std::uint64_t seed, const FaultPlan& plan, const CampaignOptions& options) {
  runtime::SimRuntime sim(seed);
  FaultyRuntime frt(sim, seed ^ kFaultStream);

  constexpr std::size_t kClusters = 8;
  core::CompositeConfig config;
  config.seed = seed;
  config.topology.lanes_per_leaf = 2;
  config.topology.fanout = 2;
  // Short enough that a permanent partition orphans within the event budget;
  // long enough that a healthy subtree always reports first.
  config.topology.commit_timeout = runtime::seconds(2);
  core::CompositeAdaptationSystem system(frt, config);
  arm_recorder(system.tracer());

  std::vector<std::unique_ptr<StubProcess>> processes;
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
  }
  system.finalize();

  config::Configuration source, target;
  for (std::size_t c = 0; c < kClusters; ++c) {
    source = source.with(static_cast<config::ComponentId>(2 * c));
    target = target.with(static_cast<config::ComponentId>(2 * c + 1));
  }
  system.set_current_configuration(source);
  if (options.fault != proto::ManagerFault::None) {
    for (std::size_t s = 0; s < system.shard_count(); ++s) {
      system.shard_manager(s).inject_fault(options.fault);
    }
  }

  frt.faulty_transport().set_tracing(true);
  FaultyTransport& net = frt.faulty_transport();
  const auto& links = system.coordinator_links();
  const auto link = [&links](config::ProcessId process) { return links[process % links.size()]; };
  // Coordinators have no fail-to-reset hook: the window takes the child out.
  arm_plan(plan, frt,
           PlanTargets{link, [&net, link](config::ProcessId process, bool open) {
                         net.partition_node(link(process).second, open);
                       }});

  RunResult out;
  std::optional<core::CompositeResult> result;
  try {
    result = system.adapt_and_wait(target, options.max_events);
    out.outcome = result->success ? "success"
                                  : (result->orphaned != 0 ? "orphaned" : "partial-failure");
  } catch (const std::runtime_error& e) {
    out.outcome = "did-not-terminate";
    out.violations.push_back(std::string("non-termination: ") + e.what());
  }
  const runtime::Time horizon = plan_horizon(plan) + runtime::ms(20);
  if (horizon > sim.clock().now()) frt.advance(horizon - sim.clock().now());

  const auto violate = [&out](const std::string& what) { out.violations.push_back(what); };

  // -- every cluster rests safely: exactly one of {X_i, Y_i} ------------------
  const config::Configuration resting = system.current_configuration();
  for (std::size_t c = 0; c < kClusters; ++c) {
    const bool x = resting.contains(static_cast<config::ComponentId>(2 * c));
    const bool y = resting.contains(static_cast<config::ComponentId>(2 * c + 1));
    if (x == y) {
      violate("unsafe-rest: cluster " + std::to_string(c) + " rests with X=" +
              std::to_string(x) + " Y=" + std::to_string(y) +
              " (must hold exactly one)");
    }
  }

  // -- reported shard fates match where the cluster actually rests ------------
  // Orphans are exempt: their subtree may have finished after the report was
  // lost, so only the unsafe-rest oracle constrains them.
  if (result.has_value()) {
    for (const proto::ShardOutcome& outcome : result->outcomes) {
      if (!outcome.reported) continue;
      const auto x = static_cast<config::ComponentId>(2 * outcome.shard);
      config::Configuration cluster;  // the cluster's slice of the resting configuration
      for (const config::ComponentId id : {x, x + 1}) {
        if (resting.contains(id)) cluster = cluster.with(id);
      }
      for (const std::string& what : proto::outcome_violations(
               proto::to_string(outcome.result.outcome), cluster,
               config::Configuration{}.with(x), config::Configuration{}.with(x + 1),
               system.registry())) {
        violate("illegal-outcome: shard " + std::to_string(outcome.shard) + " " + what);
      }
    }
  }

  // -- the epoch pipeline drained: no coordinator is wedged mid-commit --------
  for (std::size_t i = 0; i < system.coordinator_count(); ++i) {
    if (!system.coordinator(i).idle()) {
      violate("non-termination: coordinator " + std::to_string(i) +
              " is not idle after the drain (phase " +
              std::string(proto::to_string(system.coordinator(i).phase())) + ")");
    }
  }

  // -- delivered trace obeys the step rules AND the epoch rules ---------------
  for (const proto::SafetyViolation& v : proto::check_trace(net.trace(), system.manager_nodes())) {
    violate("conformance: " + v.description);
  }

  // -- obs metrics agree with the managers' own accounting --------------------
  double reported_blocked = 0;
  for (std::size_t s = 0; s < system.shard_count(); ++s) {
    reported_blocked += static_cast<double>(system.shard_manager(s).total_blocked_reported());
  }
  const double histogram = system.metrics().histogram_family_sum("sa_blocked_time_us");
  if (histogram != reported_blocked) {
    violate("metrics-mismatch: sa_blocked_time_us sums to " + std::to_string(histogram) +
            " but the managers reported " + std::to_string(reported_blocked) + "us blocked");
  }
  capture_tail(system.tracer(), out);
  return out;
}

/// Failure class = the prefix before the first ':' of a violation string.
std::set<std::string> violation_classes(const std::vector<std::string>& violations) {
  std::set<std::string> classes;
  for (const std::string& v : violations) classes.insert(v.substr(0, v.find(':')));
  return classes;
}

bool intersects(const std::set<std::string>& a, const std::set<std::string>& b) {
  return std::ranges::any_of(a, [&b](const std::string& x) { return b.contains(x); });
}

}  // namespace

FaultPlan plan_for_seed(const std::string& scenario, std::uint64_t seed) {
  util::Rng rng(seed ^ kPlanStream);
  PlanShape shape;
  shape.processes = paper_processes();
  if (scenario == "video") {
    // The testbed streams while adapting; keep extra data-plane loss gentler
    // so runs stay inside the event budget.
    shape.max_loss = 0.3;
  }
  if (scenario == "fleet") {
    // Targets index the 6 coordinator links of the 8-cluster tree (4 leaves,
    // 2 interior, 1 root), not agent processes. The epoch pipeline drains in
    // ~20ms of virtual time, so windows must open inside that span to hit a
    // commit in flight (the default 150ms horizon would mostly miss).
    shape.processes = {0, 1, 2, 3, 4, 5};
    shape.horizon = runtime::ms(15);
  }
  return generate_plan(rng, shape);
}

FaultPlan socket_plan_for_seed(std::uint64_t seed) {
  util::Rng rng(seed ^ kPlanStream);
  PlanShape shape;
  shape.processes = paper_processes();
  // Wall-clock windows on real processes: the horizon covers the manager's
  // settle delay plus the adaptation itself, and "permanent" windows cap at
  // 2s — enough to outlast a phase's retransmission budget without turning a
  // CI campaign into minutes of sleeping.
  shape.horizon = runtime::ms(300);
  shape.max_window = runtime::seconds(2);
  return generate_plan(rng, shape);
}

RunResult run_one(const std::string& scenario, std::uint64_t seed, const FaultPlan& plan,
                  const CampaignOptions& options) {
  validate(plan);
  if (options.backend == "socket") {
    if (scenario != "paper") {
      throw std::invalid_argument("socket backend supports the paper scenario only");
    }
    return run_socket_paper(seed, plan, options);
  }
  if (options.backend != "sim") {
    throw std::invalid_argument("unknown campaign backend: " + options.backend);
  }
  if (scenario == "paper") return run_paper(seed, plan, options, core::PaperActionSet::All);
  if (scenario == "paper-combined") {
    // Pair/triple Table-2 actions span processes, so steps have >= 2 involved
    // agents — the only shape where a resume-early mutation can fire.
    return run_paper(seed, plan, options, core::PaperActionSet::CombinedOnly);
  }
  if (scenario == "video") return run_video(seed, plan, options);
  if (scenario == "fleet") return run_fleet(seed, plan, options);
  throw std::invalid_argument("unknown campaign scenario: " + scenario);
}

FaultPlan shrink_plan(const std::string& scenario, std::uint64_t seed, FaultPlan plan,
                      const CampaignOptions& options,
                      const std::vector<std::string>& original_violations) {
  const std::set<std::string> target_classes = violation_classes(original_violations);
  const auto reproduces = [&](const FaultPlan& candidate) {
    const RunResult result = run_one(scenario, seed, candidate, options);
    return intersects(violation_classes(result.violations), target_classes);
  };

  // Pass 1: drop whole events, rescanning after every successful removal.
  bool removed = true;
  while (removed) {
    removed = false;
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
      FaultPlan candidate = plan;
      candidate.events.erase(candidate.events.begin() + static_cast<std::ptrdiff_t>(i));
      if (reproduces(candidate)) {
        plan = std::move(candidate);
        removed = true;
        break;
      }
    }
  }

  // Pass 2: halve each surviving window until it stops reproducing.
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    while (plan.events[i].end - plan.events[i].start >= 2) {
      FaultPlan candidate = plan;
      FaultEvent& event = candidate.events[i];
      event.end = event.start + (event.end - event.start) / 2;
      if (!reproduces(candidate)) break;
      plan = std::move(candidate);
    }
  }
  return plan;
}

CampaignSummary run_campaign(const CampaignOptions& options) {
  if (options.seed_end < options.seed_begin) {
    throw std::invalid_argument("campaign seed range is reversed");
  }
  const std::uint64_t count = options.seed_end - options.seed_begin;
  std::vector<RunReport> reports(count);
  std::atomic<std::uint64_t> next{0};

  // src/check/engine's worker-pool shape: one atomic cursor, self-contained
  // work items, results landing in per-seed slots so the summary is
  // bit-identical for any thread count.
  const auto worker = [&] {
    while (true) {
      const std::uint64_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) return;
      const std::uint64_t seed = options.seed_begin + index;
      RunReport& report = reports[index];
      report.seed = seed;
      report.plan = options.backend == "socket" ? socket_plan_for_seed(seed)
                                                : plan_for_seed(options.scenario, seed);
      RunResult result = run_one(options.scenario, seed, report.plan, options);
      // Socket runs are real-time and not byte-deterministic, so a shrink
      // search would chase a moving target; keep the generated plan.
      if (!result.violations.empty() && options.shrink && options.backend != "socket") {
        report.plan =
            shrink_plan(options.scenario, seed, report.plan, options, result.violations);
        result = run_one(options.scenario, seed, report.plan, options);
      }
      report.outcome = std::move(result.outcome);
      report.violations = std::move(result.violations);
      report.trace_tail = std::move(result.trace_tail);
    }
  };

  const std::size_t threads =
      std::max<std::size_t>(1, std::min<std::size_t>(options.threads, count));
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  CampaignSummary summary;
  summary.runs = count;
  for (RunReport& report : reports) {
    ++summary.outcomes[report.outcome];
    if (!report.violations.empty()) summary.failures.push_back(std::move(report));
  }
  return summary;
}

std::string to_json(const FuzzArtifact& artifact) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"scenario\": \"" << obs::json_escape(artifact.scenario) << "\",\n";
  out << "  \"backend\": \"" << obs::json_escape(artifact.backend) << "\",\n";
  out << "  \"seed\": " << artifact.seed << ",\n";
  out << "  \"fault\": \"" << check::to_string(artifact.fault) << "\",\n";
  out << "  \"max_events\": " << artifact.max_events << ",\n";
  out << "  \"plan\": " << to_json(artifact.plan) << ",\n";
  out << "  \"violations\": [";
  for (std::size_t i = 0; i < artifact.violations.size(); ++i) {
    if (i != 0) out << ", ";
    out << '"' << obs::json_escape(artifact.violations[i]) << '"';
  }
  out << "]\n}\n";
  return out.str();
}

FuzzArtifact artifact_from_json(const std::string& text) {
  using Value = util::JsonValue;
  const Value root = util::parse_json(text, "fuzz artifact JSON");
  if (root.type != Value::Type::Object) {
    throw std::runtime_error("fuzz artifact JSON: not an object");
  }
  const auto require = [&root](const char* key) -> const Value& {
    const Value* v = root.find(key);
    if (v == nullptr) {
      throw std::runtime_error(std::string("fuzz artifact JSON: missing \"") + key + '"');
    }
    return *v;
  };
  FuzzArtifact artifact;
  artifact.scenario = require("scenario").string;
  if (const Value* backend = root.find("backend")) artifact.backend = backend->string;
  artifact.seed = require("seed").integer;
  if (const Value* fault = root.find("fault")) {
    artifact.fault = check::fault_from_string(fault->string);
  }
  if (const Value* budget = root.find("max_events")) {
    artifact.max_events = static_cast<std::size_t>(budget->number);
  }
  artifact.plan = plan_from_value(require("plan"));
  if (const Value* violations = root.find("violations")) {
    for (const Value& v : violations->array) artifact.violations.push_back(v.string);
  }
  return artifact;
}

}  // namespace sa::inject
