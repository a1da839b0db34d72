#include "proto/core/states.hpp"

namespace sa::proto {

namespace {

/// The state of `last` or below whose to_string is `name`.
template <typename State>
std::optional<State> from_string(std::string_view name, State last) {
  for (int s = 0; s <= static_cast<int>(last); ++s) {
    if (to_string(static_cast<State>(s)) == name) return static_cast<State>(s);
  }
  return std::nullopt;
}

}  // namespace

std::string_view to_string(ManagerPhase phase) {
  switch (phase) {
    case ManagerPhase::Running: return "running";
    case ManagerPhase::Preparing: return "preparing";
    case ManagerPhase::Adapting: return "adapting";
    case ManagerPhase::Adapted: return "adapted";
    case ManagerPhase::Resuming: return "resuming";
    case ManagerPhase::Resumed: return "resumed";
    case ManagerPhase::RollingBack: return "rolling-back";
  }
  return "?";
}

std::optional<ManagerPhase> manager_phase_from_string(std::string_view name) {
  return from_string(name, ManagerPhase::RollingBack);
}

// Figure 2's edges: a step cycles adapting -> adapted -> resuming -> resumed;
// preparing, resuming, resumed and rolling-back may end the request.
bool is_transition(ManagerPhase from, ManagerPhase to) {
  using P = ManagerPhase;
  switch (from) {
    case P::Running: return to == P::Preparing;
    case P::Preparing: return to == P::Adapting || to == P::Running;
    case P::Adapting: return to == P::Adapted || to == P::RollingBack;
    case P::Adapted: return to == P::Resuming;
    case P::Resuming: return to == P::Resumed || to == P::Running;
    case P::Resumed:
    case P::RollingBack: return to == P::Adapting || to == P::Running;
  }
  return false;
}

std::string_view to_string(AgentState state) {
  switch (state) {
    case AgentState::Running: return "running";
    case AgentState::Resetting: return "resetting";
    case AgentState::Safe: return "safe";
    case AgentState::Adapted: return "adapted";
    case AgentState::Resuming: return "resuming";
  }
  return "?";
}

std::optional<AgentState> agent_state_from_string(std::string_view name) {
  return from_string(name, AgentState::Resuming);
}

// Figure 1's edges: resetting and safe may fall back to running (timeout,
// rollback); from adapted on the agent only moves forward.
bool is_transition(AgentState from, AgentState to) {
  using S = AgentState;
  switch (from) {
    case S::Running: return to == S::Resetting;
    case S::Resetting: return to == S::Safe || to == S::Running;
    case S::Safe: return to == S::Adapted || to == S::Running;
    case S::Adapted: return to == S::Resuming;
    case S::Resuming: return to == S::Running;
  }
  return false;
}

std::string_view to_string(CoordinatorPhase phase) {
  switch (phase) {
    case CoordinatorPhase::Idle: return "idle";
    case CoordinatorPhase::Batching: return "batching";
    case CoordinatorPhase::Committing: return "committing";
  }
  return "?";
}

std::string_view to_string(AdaptationOutcome outcome) {
  switch (outcome) {
    case AdaptationOutcome::Success: return "success";
    case AdaptationOutcome::NoPathFound: return "no-path-found";
    case AdaptationOutcome::RolledBackToSource: return "rolled-back-to-source";
    case AdaptationOutcome::UserInterventionRequired: return "user-intervention-required";
    case AdaptationOutcome::StalledAfterResume: return "stalled-after-resume";
  }
  return "?";
}

}  // namespace sa::proto
