// Sans-I/O core of the per-process adaptation agent (paper §4, Figure 1).
//
// The complete Fig. 1 automaton — reset/quiesce, in-action, proactive or
// commanded resume, rollback/compensation, and idempotent re-acknowledgement
// of retransmitted manager messages — as a pure, copyable state machine.
// Interaction with the local AdaptableProcess is expressed as Process*
// Outputs; the driver performs the real call and reports the completion back
// as an AgentLocalEvent (reset complete / in-action complete / ...), so the
// core never blocks, locks, or reads a clock. Time arrives as data on each
// Input and is used only to attribute blocked-time durations.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "proto/core/io.hpp"
#include "proto/core/states.hpp"
#include "proto/messages.hpp"

namespace sa::proto {

struct AgentConfig {
  runtime::Time pre_action_duration = runtime::ms(1);   ///< component initialization
  runtime::Time in_action_duration = runtime::ms(2);    ///< structural change
  runtime::Time resume_duration = runtime::us(200);     ///< unblocking
  /// Failure injection: when set, the agent never reaches its safe state
  /// (models a process stuck in a long critical communication segment).
  bool fail_to_reset = false;
};

struct AgentStats {
  std::uint64_t resets_handled = 0;
  std::uint64_t adapts_performed = 0;
  std::uint64_t rollbacks_performed = 0;
  std::uint64_t duplicate_messages = 0;
  runtime::Time total_blocked = 0;  ///< cumulative time the process spent blocked
};

class AgentCore {
 public:
  explicit AgentCore(AgentConfig config = {});

  AgentState state() const { return state_; }
  const AgentStats& stats() const { return stats_; }
  const std::optional<StepRef>& current_step() const { return current_step_; }

  void set_fail_to_reset(bool fail) { config_.fail_to_reset = fail; }

  /// The step most recently resumed to completion — the key of the
  /// idempotent re-ack bookkeeping, exposed so a distributed agent can
  /// journal it (§4.4 crash recovery).
  const std::optional<StepRef>& last_completed() const { return last_completed_; }

  /// §4.4 crash recovery: a re-exec'd agent restores the journaled
  /// re-ack key and blocked-time tally before processing any input, so a
  /// retransmitted Resume for an already-completed step is re-acked instead
  /// of re-executed. Only meaningful on a freshly constructed (Running) core.
  void restore_recovery(std::optional<StepRef> last_completed, runtime::Time total_blocked) {
    last_completed_ = std::move(last_completed);
    stats_.total_blocked = total_blocked;
  }

  /// Consumes one input: clears `out` and fills it with the ordered side
  /// effects the input caused (the caller owns and may reuse the buffer).
  /// Every Send is addressed to the manager; every Process* operation to the
  /// agent's own AdaptableProcess.
  void step(const AgentInput& input, std::vector<Output>& out);

  /// Mixes all protocol-relevant state (not timestamps) into `h`.
  void fingerprint(std::uint64_t& h) const;

 private:
  /// What the agent's single pending-action timer slot is waiting for.
  enum class Pending : std::uint8_t { PreAction, InAction, Resume, RollbackUndo };
  /// Why the core asked the process to reach its safe state.
  enum class SafeWait : std::uint8_t { None, Reset, Compensate };

  void on_message(const runtime::MessagePtr& message);
  void on_reset(const runtime::MessagePtr& message, const ResetMsg& msg);
  void on_resume(const ResumeMsg& msg);
  void on_rollback(const RollbackMsg& msg);
  void on_timer_fired();
  void on_local(AgentLocalEvent event);
  void enter_safe_state();
  void finish_resume();

  void set_state(AgentState next);
  void arm_pending(Pending kind, runtime::Time delay, const char* label);
  void cancel_pending();
  template <typename Msg>
  void send(const StepRef& step, Msg prototype = {});
  void note_duplicate(const char* type);
  Output& emit(OutputKind kind);

  AgentConfig config_;

  AgentState state_ = AgentState::Running;
  std::optional<StepRef> current_step_;
  /// The command of the current step, aliasing the ResetMsg that carried it:
  /// set once per fresh reset, so forking the core copies a pointer rather
  /// than two vectors of names. It shares the delivered pointer's ownership;
  /// the model checker delivers pointers that own nothing (its message table
  /// keeps the messages), so there a fork writes no reference count.
  /// command_hash_ is its fingerprint contribution, computed in the same place.
  std::shared_ptr<const LocalCommand> current_command_;
  std::uint64_t command_hash_;
  bool sole_participant_ = false;
  bool prepared_ = false;
  bool drain_ = false;  ///< drain flag of the step being reset

  bool pending_armed_ = false;
  Pending pending_kind_ = Pending::PreAction;
  const char* pending_label_ = "";

  SafeWait safe_wait_ = SafeWait::None;
  StepRef compensate_step_;  ///< step being compensated (SafeWait::Compensate)

  runtime::Time blocked_since_ = 0;
  std::optional<StepRef> last_completed_;  ///< resumed successfully
  runtime::Time last_blocked_for_ = 0;
  std::optional<StepRef> last_rolled_back_;

  AgentStats stats_;

  runtime::Time now_ = 0;  ///< timestamp of the input being processed
  /// The caller's buffer for the input being processed; set by step() and
  /// only dereferenced inside it.
  std::vector<Output>* out_ = nullptr;
};

}  // namespace sa::proto
