// The sans-I/O core's effect vocabulary.
//
// ManagerCore, AgentCore and CoordinatorCore are pure state machines: they
// consume Inputs (message deliveries, timer fires, adaptation commands,
// local completions) and produce ordered Output lists describing every side
// effect the protocol wants — sends, timer arms/disarms, automaton
// transitions, process operations, commits, and terminal outcomes.
//
// Sink contract: ManagerCore::step, AgentCore::step and CoordinatorCore::step
// take the Output list as a caller-owned `std::vector<Output>&`, clear it,
// and append to it; the list is valid until the caller reuses the buffer.
// The runtime drivers pass a local vector per input. The model checker keeps
// one buffer per thread and nesting depth (an agent's outputs can step the
// same agent again while the outer list is being applied), so stepping a
// forked core allocates only the messages it sends, and those come from
// per-thread free lists (util/block_pool.hpp). An Output is a small record of
// the fields most kinds use, with the rest (outcome, request notes,
// coordinator bookkeeping) in an out-of-line OutputPayload, so a manager or
// agent effect on an explored edge builds no string or vector.
// Output::command holds the step's two component masks by value,
// Output::name points at a literal or the action table, and the cores emit
// data, never text: an Outcome carries its reason as an OutcomeReason, a
// step its action id, a plan its action ids and a request its two
// configurations, and the driver formats them only where it records the
// text.
//
// Delivery contract: a MessageDelivered input does not own its message. It
// points at a MessagePtr the caller holds, which must stay valid for the one
// step() the input is passed to; no core keeps any part of it past that step
// (the agent copies its reset's two command masks). The runtime drivers pass
// the address of the MessagePtr their transport handed them. The model
// checker passes the address of the pointer in its per-search message table
// (check/message_table.hpp), so delivering a message costs no reference count.
//
// The runtime drivers translate Outputs into runtime::Transport sends,
// runtime::Clock timers, process calls, and observability events; the timer
// slot, the trace handle and the Transition event they share are written
// once, in proto/effects.hpp. The interleaving explorer translates the same
// Outputs into virtual network/timer state, records the same Transition
// events, and checks safety properties against them. No core touches a
// Clock, Transport, mutex, or the obs layer, so the cores are copyable values
// that behave identically under the simulator, the threaded backend, and the
// model checker. Time enters the agent and coordinator cores as plain data on
// each Input (the agent reports how long it was blocked, the coordinator
// stamps epochs). The manager core reads no time at all: a ManagerInput
// carries none, and the driver stamps an Outcome's `started` and `finished`
// (the times it dispatched the request and the step that emitted the
// Outcome), so the model checker can intern manager states and memoize their
// steps (check/manager_table.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "actions/action.hpp"
#include "config/configuration.hpp"
#include "proto/core/states.hpp"
#include "proto/messages.hpp"
#include "runtime/message.hpp"
#include "runtime/time.hpp"
#include "util/block_pool.hpp"
#include "util/small_vector.hpp"

namespace sa::proto {

// AdaptationResult lives in proto/messages.hpp (coordinator messages carry
// per-shard results up the manager tree); this header re-exports it through
// that include for the cores' pre-existing spelling.

/// The manager owns two logical timer slots: the protocol timer (reset /
/// resume / rollback timeout, one at a time) and the inter-stage delay.
enum class ManagerTimer : std::uint8_t { Protocol, StageDelay };

/// The agent owns a single pending-action slot (pre-action, in-action,
/// resume, or rollback-undo — never more than one at a time).
enum class AgentTimer : std::uint8_t { Pending };

/// The coordinator owns two logical timer slots: the epoch window (closes the
/// accumulating batch) and the commit timeout (orphans unreported shards so a
/// partitioned subtree cannot wedge the epoch pipeline).
enum class CoordinatorTimer : std::uint8_t { Epoch, Commit };

/// Local completions an agent driver reports back to its core after
/// executing a ProcessOp (reset complete / in-action complete / ...).
enum class AgentLocalEvent : std::uint8_t {
  PrepareSucceeded,  ///< pre-action built the staged components
  PrepareFailed,     ///< pre-action failed; hold for the manager's timeout
  SafeStateReached,  ///< the process quiesced and is now blocked
  ApplySucceeded,    ///< in-action performed the structural change
  ApplyFailed,       ///< in-action failed; hold for the manager's timeout
};

struct ManagerInput {
  struct AdaptCommand {
    config::Configuration target;
    std::uint64_t cause_span = 0;  ///< span that caused this request (tracing)
  };
  struct MessageDelivered {
    config::ProcessId from = 0;
    const runtime::MessagePtr* message = nullptr;  ///< valid for one step()
  };
  struct TimerFired {
    ManagerTimer timer = ManagerTimer::Protocol;
  };

  /// No timestamp: the manager's behaviour never depends on time.
  std::variant<AdaptCommand, MessageDelivered, TimerFired> event;
};

struct AgentInput {
  struct MessageDelivered {  ///< always from the manager
    const runtime::MessagePtr* message = nullptr;  ///< valid for one step()
  };
  struct TimerFired {};  ///< the single pending slot

  runtime::Time now = 0;
  std::variant<MessageDelivered, TimerFired, AgentLocalEvent> event;
};

struct CoordinatorInput {
  /// At the root this is an application submission; below the root it is a
  /// parent's EpochCommitMsg, whose epoch number becomes the ticket. Distinct
  /// tickets batching into the same epoch are the group commit.
  struct SubmitRequest {
    std::uint64_t ticket = 0;
    std::vector<ShardTarget> targets;
    std::uint64_t parent_span = 0;  ///< causing span: root ticket span, or the
                                    ///< committing parent's epoch span
  };
  struct ChildDone {  ///< EpochDoneMsg delivered from child index `child`
    std::size_t child = 0;
    std::uint64_t epoch = 0;
    std::vector<ShardOutcome> outcomes;
  };
  struct ShardFinished {  ///< a local lane finished executing one shard
    std::uint64_t epoch = 0;
    std::uint32_t shard = 0;
    AdaptationResult result;
  };
  struct TimerFired {
    CoordinatorTimer timer = CoordinatorTimer::Epoch;
  };

  runtime::Time now = 0;
  std::variant<SubmitRequest, ChildDone, ShardFinished, TimerFired> event;
};

/// Why a manager request finished, as data: a static reason and the fields
/// its text names, so emitting an Outcome builds no string. A driver that
/// records or logs the outcome formats the text with describe().
struct OutcomeReason {
  enum class Form : std::uint8_t {
    Plain,   ///< text
    Count,   ///< text, count, " agent(s)"
    Config,  ///< text, config
    Path,    ///< text, config, " to ", target
  };
  const char* text = "";
  Form form = Form::Plain;
  std::size_t count = 0;
  config::Configuration config{};
  config::Configuration target{};
};

/// The reason's text, its configurations named through `registry`.
std::string describe(const OutcomeReason& reason, const config::ComponentRegistry& registry);

enum class OutputKind : std::uint8_t {
  // --- transport / timer effects (both cores) -------------------------------
  Send,         ///< manager: message -> `process`; agent: message -> manager
  ArmTimer,     ///< start `timer` for `delay`, labelled `label`
  DisarmTimer,  ///< cancel `timer` (emitted only when logically armed)

  // --- automaton bookkeeping ------------------------------------------------
  Transition,     ///< phase_from->phase_to (manager) or state_from->state_to
  StepStarted,    ///< per-step span opens; name/detail describe the action
  StepCommitted,  ///< configuration advanced to `config`; `flag` = stalled
  StepRolledBack, ///< step abandoned after rollback completed
  Outcome,        ///< request terminated; `result` carries the verdict

  // --- request-level notes (manager) ----------------------------------------
  AdaptationRequested,  ///< request accepted (detail = "source -> target")
  PlanComputed,         ///< MAP / alternative path ready (value = cost)
  Retransmission,       ///< a timeout round re-sent messages (label = phase)
  ResetAcked,           ///< first reset done from `process` (latency metric)
  BlockedObserved,      ///< agent reported `blocked` µs of blocking

  // --- process operations (agent core -> its AdaptableProcess) --------------
  ProcessPrepare,    ///< pre-action: prepare(command); report Prepare* back
  ProcessReachSafe,  ///< reach_safe_state(flag = drain); report SafeStateReached
  ProcessAbortSafe,  ///< abort_safe_state()
  ProcessApply,      ///< in-action: apply(command); report Apply* back
  ProcessUndo,       ///< undo(command) (rollback of a successful in-action)
  ProcessResume,     ///< resume full operation
  ProcessCleanup,    ///< post-action: cleanup(command)

  // --- agent notes ----------------------------------------------------------
  DuplicateMessage,  ///< retransmitted manager message absorbed (label = type)

  // --- epoch-batched group commit (coordinator core) ------------------------
  SendParent,      ///< coordinator: message -> its parent coordinator
  ExecuteShard,    ///< drive local shard `shard` to `config` (tagged `epoch`)
  EpochOpened,     ///< a batch began accumulating (`epoch` = number to seal)
  EpochSealed,     ///< batch frozen (value = shard count, extra = coalesced)
  EpochCompleted,  ///< every child/lane reported (extra = orphan count)
  TicketDone,      ///< one submission's `shard_outcomes` ready (root only)
  FlowLink,        ///< causal edge for tracing: `span` caused by `parent_span`
};

/// The fields of the few kinds that need more than the common record: the
/// terminal Outcome, the request-level notes, and the coordinator's epoch
/// bookkeeping. Held out of line, in a block from the per-thread pool
/// (util/block_pool.hpp), so emitting any other output constructs and
/// destroys no string and no vector, and a warm model checker allocates
/// none for the kinds that do.
struct OutputPayload {
  /// Outcome: the verdict. The manager core leaves `started` and `finished`
  /// at 0; its driver stamps them.
  AdaptationSummary result;
  OutcomeReason reason;      ///< Outcome: why the request finished
  config::Configuration target;  ///< AdaptationRequested: the target (config = source)
  util::SmallVector<actions::ActionId, 8> plan;  ///< PlanComputed: the path's actions, in order

  // --- coordinator-only fields ----------------------------------------------
  double extra = 0;  ///< EpochSealed: coalesced submissions; EpochCompleted: orphans
  std::uint64_t epoch = 0;   ///< epoch the output belongs to
  std::uint32_t shard = 0;   ///< ExecuteShard subject
  std::uint64_t ticket = 0;  ///< TicketDone subject
  std::vector<ShardOutcome> shard_outcomes;  ///< EpochCompleted / TicketDone
  std::string detail;  ///< DuplicateMessage: what the coordinator absorbed

  // --- causal tracing ---------------------------------------------------------
  std::uint64_t span = 0;         ///< span this output belongs to
  std::uint64_t parent_span = 0;  ///< span that caused it (FlowLink / requests)
};

/// One side effect requested by a core, in emission order. One flat record
/// of the fields most kinds use, so construction sites stay terse and drivers
/// switch on `kind` while ignoring fields a kind does not use. The manager
/// and agent outputs of every explored edge use only these; the rest sit in
/// the OutputPayload, which the kinds that need it make on first use.
struct Output {
  OutputKind kind{};
  ManagerTimer timer = ManagerTimer::Protocol;        ///< Arm/DisarmTimer slot
  CoordinatorTimer ctimer = CoordinatorTimer::Epoch;  ///< Arm/DisarmTimer slot
  ManagerPhase phase_from = ManagerPhase::Running;    ///< Transition (manager)
  ManagerPhase phase_to = ManagerPhase::Running;
  AgentState state_from = AgentState::Running;       ///< Transition (agent)
  AgentState state_to = AgentState::Running;
  CoordinatorPhase cphase_from = CoordinatorPhase::Idle;  ///< Transition
  CoordinatorPhase cphase_to = CoordinatorPhase::Idle;
  bool flag = false;              ///< drain (ProcessReachSafe), stalled (Commit)
  bool has_value = false;
  config::ProcessId process = 0;  ///< Send destination / note subject
  StepRef ref;                    ///< step coordinates at emission time
  std::uint64_t request_id = 0;   ///< owning request (Transition/Outcome/notes)
  actions::ActionId action = 0;   ///< StepStarted: the step's action
  runtime::MessagePtr message;    ///< Send payload
  runtime::Time delay = 0;        ///< ArmTimer timeout
  runtime::Time blocked = 0;      ///< BlockedObserved µs
  const char* label = "";         ///< timer label / retransmission phase / dup type
  /// Action name (Step*, from the core's action table), outcome name, or a
  /// request note's literal name; never owns its characters.
  std::string_view name;
  double value = 0;               ///< plan cost, involved count, ...
  config::Configuration config;   ///< StepCommitted/Outcome: new config; request: source
  LocalCommand command;           ///< Process* operand

  /// The out-of-line fields, made on first use.
  OutputPayload& payload() {
    if (!payload_) {
      payload_.reset(new (util::BlockPool::allocate(sizeof(OutputPayload))) OutputPayload());
    }
    return *payload_;
  }
  /// The out-of-line fields, or their defaults when none were made.
  const OutputPayload& payload() const {
    static const OutputPayload kNone{};
    return payload_ ? *payload_ : kNone;
  }

 private:
  struct PayloadDeleter {
    void operator()(OutputPayload* payload) const noexcept {
      payload->~OutputPayload();
      util::BlockPool::deallocate(payload, sizeof(OutputPayload));
    }
  };
  std::unique_ptr<OutputPayload, PayloadDeleter> payload_;
};

static_assert(sizeof(OutputPayload) <= util::BlockPool::kMaxPooledBytes,
              "an output's payload comes from the block pool");
static_assert(sizeof(Output) <= 176, "every effect value-initializes the common record");

}  // namespace sa::proto
