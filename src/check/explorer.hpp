// Bounded interleaving explorer: model-checks the paper's safety argument
// over schedules of the sans-I/O protocol cores.
//
// Two search modes over the Model's choice tree:
//
//   * explore_dfs     depth-first over every enabled choice (delivery order,
//                     drops, duplicates, timer-vs-message races) with
//                     hashed-state deduplication and depth/state budgets.
//                     With generous budgets and a small scenario the search
//                     is exhaustive (result.complete == true).
//   * explore_random  seeded random walks to quiescence — cheap probing of
//                     schedules deeper than the DFS bound.
//
// The first safety violation found stops the search and is returned as a
// replayable Counterexample: the exact (kind, seq) choice schedule, which
// `replay` re-executes deterministically and which round-trips through JSON
// (schedule_to_json / schedule_from_json) for CI artifacts and bug reports.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "check/model.hpp"
#include "check/scenario.hpp"

namespace sa::check {

struct ExploreOptions {
  /// Choices per run (DFS recursion bound); <= 0 means unbounded — safe only
  /// with the reductions or a state cap, since reorder/dup schedules branch
  /// wide.
  int max_depth = 80;
  std::size_t max_states = 200'000;  ///< distinct fingerprints before giving up
  int drop_budget = 0;
  int dup_budget = 0;
  bool reorder = false;
  proto::ManagerFault fault = proto::ManagerFault::None;
  /// Agents that never reach their safe state (drives the §4.4 chain).
  std::vector<config::ProcessId> fail_to_reset;
  /// Worker threads for the search engine (src/check/engine.hpp). 1 = fully
  /// deterministic sequential order; <= 0 = one per hardware thread. On a
  /// search that completes within its budgets the verdict and the
  /// dedup-invariant stats are identical for every thread count.
  int threads = 1;
  /// Dynamic partial-order reduction (DFS only): per-frame sleep sets prune
  /// schedules that only permute independent choices (see
  /// check/model.hpp choices_dependent). Sound for all of P1-P5: every
  /// Mazurkiewicz trace keeps at least one representative, and quiescent
  /// leaves are never sleep-pruned, so the outcome counts of a complete
  /// search are unchanged. Off by default to keep existing traces
  /// byte-identical.
  bool dpor = false;
  /// Symmetry reduction (DFS only): deduplicate on
  /// Model::canonical_fingerprint() instead of Model::fingerprint(), folding
  /// states that differ only by a permutation of same-role agents or by the
  /// creation-order interleaving of in-flight messages on distinct channels.
  /// Counterexample schedules stay concrete (replay never canonicalizes).
  bool symmetry = false;
};

struct ExploreStats {
  std::size_t states_explored = 0;  ///< choice applications
  std::size_t states_deduped = 0;   ///< branches cut by fingerprint match
  std::size_t runs_completed = 0;   ///< quiescent leaves reached
  std::size_t depth_capped = 0;     ///< branches cut by max_depth
  std::size_t sleep_pruned = 0;     ///< branches cut by DPOR sleep sets
  int max_depth_reached = 0;
  std::map<std::string, std::size_t> outcomes;  ///< outcome name -> leaf count
  /// Edges by the kind of choice applied, indexed by Choice::Kind (deliver,
  /// drop, duplicate, fire); they sum to states_explored.
  std::array<std::size_t, Choice::kKinds> edges_by_kind{};
  /// Frames whose children were generated, by frame depth (DFS only). Like
  /// max_depth_reached it depends on which path reaches a shared state
  /// first, so it varies with the thread count.
  std::vector<std::size_t> expanded_by_depth;
  /// Most bytes the visited-state table held at once (DFS only).
  std::size_t visited_peak_bytes = 0;
};

struct Counterexample {
  std::vector<Choice> schedule;
  std::vector<std::string> violations;
};

struct ExploreResult {
  ExploreStats stats;
  std::optional<Counterexample> counterexample;
  /// True iff the search covered every schedule within its budgets: no
  /// depth-capped branch, no state-cap abort (DFS only; random walks and
  /// violation-aborted searches are never complete).
  bool complete = false;
  /// True iff max_states stopped the search (DFS only; depth cuts are
  /// stats.depth_capped).
  bool state_budget_reached = false;
};

Model make_model(const Scenario& scenario, const ExploreOptions& options);

/// Work-stealing frontier search over the Model's choice tree (engine.hpp).
ExploreResult explore_dfs(const Scenario& scenario, const ExploreOptions& options);

/// Seeded random walks to quiescence, distributed over the worker pool. Runs
/// keep their sequential identity (run r always uses seed + r * odd), and
/// per-run stat deltas are merged in run order up to the first violating run
/// — bit-identical to the sequential engine for every thread count.
ExploreResult explore_random(const Scenario& scenario, const ExploreOptions& options,
                             std::uint64_t seed, std::size_t runs);

struct ReplayResult {
  std::vector<Violation> violations;
  std::optional<proto::AdaptationSummary> outcome;
  std::vector<obs::Event> transitions;
  /// False if some schedule entry was not enabled (schedule and scenario /
  /// options diverged); violations up to that point are still reported.
  bool schedule_valid = true;
};

/// Re-executes `schedule` against a fresh model. Deterministic: the same
/// scenario, options, and schedule always reproduce the same violations.
ReplayResult replay(const Scenario& scenario, const ExploreOptions& options,
                    const std::vector<Choice>& schedule);

/// Self-contained, serializable description of one explorer schedule —
/// everything replay needs plus the violations it reproduces.
struct ScheduleFile {
  std::string scenario;  ///< name for make_scenario
  ExploreOptions options;
  std::vector<Choice> schedule;
  std::vector<std::string> violations;
};

std::string to_json(const ScheduleFile& file);
/// Throws std::runtime_error on malformed input.
ScheduleFile schedule_from_json(const std::string& text);

const char* to_string(proto::ManagerFault fault);
/// Throws std::invalid_argument on unknown names.
proto::ManagerFault fault_from_string(std::string_view name);

}  // namespace sa::check
