// The protocol's state vocabulary — the single home of the Figure 1 / Figure 2
// automata (states and transition relations), the terminal adaptation
// outcomes, and their names.
//
// Everything that talks about manager phases or agent states (the sans-I/O
// cores, the runtime drivers, the observability exporters, the interleaving
// explorer, the trace checker, tools) includes this header, so a state name
// is rendered and parsed the same way everywhere, a recorded transition is
// judged against one relation, and a new state cannot be added in one place
// but not the others.
#pragma once

#include <optional>
#include <string_view>

namespace sa::proto {

/// Figure 2: the manager's phases over one adaptation request.
enum class ManagerPhase {
  Running,      ///< fully operational, no adaptation in progress
  Preparing,    ///< MAP creation
  Adapting,     ///< waiting for reset done / adapt done
  Adapted,      ///< all in-actions complete (transient)
  Resuming,     ///< waiting for resume done
  Resumed,      ///< step committed (transient)
  RollingBack   ///< aborting a failed step
};

std::string_view to_string(ManagerPhase phase);
/// Inverse of to_string; std::nullopt for a name that is no phase.
std::optional<ManagerPhase> manager_phase_from_string(std::string_view name);
/// True iff Figure 2 has an edge `from` -> `to`.
bool is_transition(ManagerPhase from, ManagerPhase to);

/// Figure 1: the per-process agent automaton.
enum class AgentState { Running, Resetting, Safe, Adapted, Resuming };

std::string_view to_string(AgentState state);
/// Inverse of to_string; std::nullopt for a name that is no state.
std::optional<AgentState> agent_state_from_string(std::string_view name);
/// True iff Figure 1 has an edge `from` -> `to`.
bool is_transition(AgentState from, AgentState to);

/// The coordinator's epoch pipeline over one manager-tree node (§7 scaled to
/// a fleet): requests batch and coalesce during an epoch window, seal into
/// one group commit, and the next epoch opens only once every child subtree
/// and local lane reported (or the commit timeout orphaned the stragglers).
enum class CoordinatorPhase {
  Idle,        ///< no batch open, no commit in flight
  Batching,    ///< requests accumulate until the epoch window closes
  Committing,  ///< sealed epoch executing below (the next batch may accumulate)
};

std::string_view to_string(CoordinatorPhase phase);

/// Terminal fates of one adaptation request (§4.4 strategy chain).
enum class AdaptationOutcome {
  Success,                   ///< target configuration reached
  NoPathFound,               ///< source or target unsafe, or SAG disconnected
  RolledBackToSource,        ///< target unreachable; system returned to source
  UserInterventionRequired,  ///< all strategies failed; system parked at a safe config
  StalledAfterResume         ///< step committed but some resume unacknowledged
};

std::string_view to_string(AdaptationOutcome outcome);

}  // namespace sa::proto
