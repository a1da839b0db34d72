// The fault-injection campaign: seeds -> plans -> full-stack runs -> oracles
// -> shrunk, replayable reproducers.
//
// Where the model checker (src/check) exhausts interleavings of the sans-I/O
// cores, the campaign attacks the layer the checker cannot reach: the real
// drivers (proto::AdaptationManager / AdaptationAgent), the real timer and
// transport machinery, and the assembled core::SafeAdaptationSystem — by
// running the paper's §5 scenario on a deterministic SimRuntime wrapped in
// the FaultyTransport/FaultyClock decorators and checking after every run:
//
//   unsafe-rest        the system came to rest in a configuration violating
//                      an invariant, or manager bookkeeping disagrees with
//                      the terminal configuration;
//   illegal-outcome    the terminal outcome is outside the §4.4 legal set for
//                      what actually happened (Success must land on the
//                      target with every agent running, NoPathFound /
//                      RolledBackToSource must land on the source, ...);
//   step-replay        replaying the committed step log from the source does
//                      not reproduce the terminal configuration, or passes
//                      through an unsafe intermediate;
//   conformance        the delivered control-message trace is not a run of
//                      the Figure 1 / Figure 2 automata;
//   metrics-mismatch   the sa_blocked_time_us histogram disagrees with the
//                      manager's total blocked time;
//   video-corruption   (video scenario) a client decoded a corrupted or
//                      undecodable packet — adaptation was visible to the
//                      application;
//   non-termination    the adaptation did not terminate within the event
//                      budget.
//
// Everything is a pure function of (scenario, seed, plan, options): the same
// seed produces the same plan, the same run, and byte-identical violations
// regardless of --threads, which is what makes shrinking and --replay work.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inject/fault_plan.hpp"
#include "proto/core/manager_core.hpp"

namespace sa::inject {

struct CampaignOptions {
  std::string scenario = "paper";  ///< "paper" (stub processes) | "video" (Fig. 3 testbed)
  /// "sim" runs the scenario in-process on SimRuntime behind the fault
  /// decorators; "socket" (scenario "paper" only) runs it as real OS
  /// processes over SocketTransport via core::run_distributed_paper — Crash
  /// events become real kill -9 + re-exec, every other window is armed by
  /// each node on its own fault decorator, and the oracles run over the
  /// supervisor's merged report. Socket
  /// runs are real-time and not byte-deterministic, so shrinking is skipped
  /// and the metrics-mismatch oracle (which needs the in-process obs
  /// registry) does not apply.
  std::string backend = "sim";
  /// Socket backend: path to the sa_node binary (empty = discover next to
  /// the calling executable / $SA_NODE).
  std::string sa_node;
  std::uint64_t seed_begin = 0;
  std::uint64_t seed_end = 16;  ///< exclusive
  std::size_t threads = 1;
  std::size_t max_events = 2'000'000;  ///< per-run simulator event budget
  /// Mutation gate: injects a deliberate protocol bug into the manager so a
  /// campaign can prove its oracles catch a broken driver stack.
  proto::ManagerFault fault = proto::ManagerFault::None;
  bool shrink = true;  ///< shrink failing plans to a minimal reproducer
};

/// One run's verdict. `outcome` is proto::to_string(AdaptationOutcome) or
/// "did-not-terminate"; `violations` empty means every oracle passed.
struct RunResult {
  std::string outcome;
  std::vector<std::string> violations;
  /// Flight-recorder tail (JSONL, most recent events first to last) captured
  /// when a violation fired — the post-mortem window sa_fuzz dumps next to
  /// the artifact. Deterministic: same run, same tail. Empty on clean runs.
  std::string trace_tail;
};

/// Report for one campaign seed; `plan` is the shrunk plan when shrinking ran
/// (`trace_tail` then belongs to the shrunk reproducer's run).
struct RunReport {
  std::uint64_t seed = 0;
  FaultPlan plan;
  std::string outcome;
  std::vector<std::string> violations;
  std::string trace_tail;
};

struct CampaignSummary {
  std::uint64_t runs = 0;
  std::vector<RunReport> failures;  ///< seed order, independent of thread count
  std::map<std::string, std::uint64_t> outcomes;  ///< terminal outcome -> count
};

/// The plan a campaign seed deterministically expands to (same seed -> same
/// plan; independent of the Rng streams used inside the run itself).
FaultPlan plan_for_seed(const std::string& scenario, std::uint64_t seed);

/// Socket-backend variant: same deterministic seed -> plan expansion, but
/// every window is wall-clock time on real processes, so horizons stay short
/// and "permanent" windows cap at a couple of seconds — long enough to beat
/// the retry budget, short enough for a CI campaign.
FaultPlan socket_plan_for_seed(std::uint64_t seed);

/// Builds the scenario on a fresh SimRuntime(seed) behind the fault
/// decorators, applies `plan`, drives the adaptation to termination, and runs
/// every oracle. Pure: depends only on the arguments.
RunResult run_one(const std::string& scenario, std::uint64_t seed, const FaultPlan& plan,
                  const CampaignOptions& options);

/// Greedy shrink: repeatedly drop whole events, then halve window durations,
/// keeping any candidate that still produces a violation of one of the
/// original classes (the prefix before ':'). Returns the minimal plan found.
FaultPlan shrink_plan(const std::string& scenario, std::uint64_t seed, FaultPlan plan,
                      const CampaignOptions& options,
                      const std::vector<std::string>& original_violations);

/// Fans seeds [seed_begin, seed_end) across `threads` workers (each run is
/// self-contained, so results are bit-identical for any thread count) and
/// shrinks failures when options.shrink is set.
CampaignSummary run_campaign(const CampaignOptions& options);

/// Self-contained, serializable reproducer for one failing run — everything
/// --replay needs plus the violations it must reproduce byte-for-byte.
struct FuzzArtifact {
  std::string scenario;
  std::string backend = "sim";  ///< "sim" | "socket"
  std::uint64_t seed = 0;
  proto::ManagerFault fault = proto::ManagerFault::None;
  std::size_t max_events = 2'000'000;
  FaultPlan plan;
  std::vector<std::string> violations;
};

std::string to_json(const FuzzArtifact& artifact);
/// Throws std::runtime_error on malformed input.
FuzzArtifact artifact_from_json(const std::string& text);

}  // namespace sa::inject
