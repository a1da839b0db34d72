// Typed observability events for the safe-adaptation protocol.
//
// Every layer that participates in an adaptation — the manager's request /
// plan / step spans, the per-process Fig. 1 state machine, every control or
// data message crossing a transport, and the protocol timers that drive
// failure handling — reports what happened as one of these events. Events
// are timestamped through the backend's runtime::Clock, so on SimRuntime a
// trace is expressed in deterministic virtual time (two same-seed runs are
// byte-identical) and on ThreadedRuntime in steady-clock microseconds, with
// no change to the instrumentation sites.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "runtime/time.hpp"
#include "runtime/transport.hpp"

namespace sa::obs {

/// Track an event belongs to in span-oriented exports (one Perfetto track
/// per process plus one for the manager). Agent tracks use the process id.
inline constexpr std::int64_t kManagerTrack = -1;
/// Events not owned by a protocol entity (e.g. transport-level message
/// records, which are attributed to endpoints at export time instead).
inline constexpr std::int64_t kNoTrack = std::numeric_limits<std::int64_t>::min();

enum class EventKind : std::uint8_t {
  // --- adaptation-level span (manager) --------------------------------------
  AdaptationRequested,  ///< request accepted; span opens
  PlanComputed,         ///< MAP (or alternative / return-to-source path) ready
  StepStarted,          ///< per-step span opens (resets go out)
  StepCommitted,        ///< step span closes: configuration advanced
  StepRolledBack,       ///< step span closes: rollback completed
  AdaptationFinished,   ///< span closes with an AdaptationOutcome

  // --- state machines -------------------------------------------------------
  ManagerPhase,  ///< Fig. 2 phase transition (detail = from, name = to)
  AgentState,    ///< Fig. 1 state transition (detail = from, name = to)

  // --- message-level records (transports) -----------------------------------
  MessageSent,        ///< accepted onto the channel
  MessageDelivered,   ///< handed to the receiving endpoint
  MessageDropped,     ///< lost on the link (detail = "loss")
  MessageDuplicated,  ///< channel scheduled a duplicate delivery

  // --- protocol timers ------------------------------------------------------
  TimerArmed,      ///< value = timeout in µs, name = purpose
  TimerFired,      ///< the timeout elapsed and the callback ran
  TimerCancelled,  ///< disarmed before firing

  // --- manager tree (coordinators) ------------------------------------------
  CoordinatorPhase,  ///< epoch pipeline transition (detail = from, name = to)
  EpochOpened,       ///< a coordinator began batching (value = epoch number)
  EpochSealed,       ///< batch frozen (value = shard count, detail = coalesced)
  EpochCompleted,    ///< every subtree reported (value = µs commit latency)

  // --- causal tracing (tickets, flows, blocked windows) ----------------------
  TicketSubmitted,  ///< a ticket entered a coordinator's batch (span = ticket)
  TicketDone,       ///< the root coordinator resolved a ticket (value = µs)
  FlowLink,         ///< causal edge: span was caused by parent_span
  BlockedWindow,    ///< a process finished a blocked window (value = µs)
};

std::string_view to_string(EventKind kind);

/// True for the four message-level kinds (they carry from/to endpoints).
bool is_message_event(EventKind kind);

/// Step coordinates mirroring proto::StepRef; request == 0 means the event is
/// not scoped to an adaptation step.
struct StepCoords {
  std::uint64_t request = 0;
  std::uint32_t plan = 0;
  std::uint32_t step = 0;
  std::uint32_t attempt = 0;
};

struct Event {
  std::uint64_t seq = 0;     ///< dense, recorder-assigned append order
  runtime::Time time = 0;    ///< µs on the backend clock that produced it
  EventKind kind{};
  std::int64_t track = kNoTrack;
  runtime::NodeId from = 0;  ///< message events only
  runtime::NodeId to = 0;    ///< message events only
  StepCoords coords;
  std::string name;    ///< state / phase / action / message-type / timer label
  std::string detail;  ///< free-form (plan actions, outcome detail, ...)
  double value = 0;    ///< µs duration, cost, plan length, ...
  bool has_value = false;
  // Causal context: span identifies the unit of work this event belongs to
  // (an epoch, a ticket, an adaptation request), parent_span the unit that
  // caused it, epoch the coordinator epoch counter. Zero means "unset".
  std::uint64_t span = 0;
  std::uint64_t parent_span = 0;
  std::uint64_t epoch = 0;
};

}  // namespace sa::obs
