#include "proto/core/agent_core.hpp"

#include "util/block_pool.hpp"

namespace sa::proto {

namespace {

inline void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

inline void mix_ref(std::uint64_t& h, const StepRef& ref) {
  mix(h, ref.request_id);
  mix(h, ref.plan);
  mix(h, ref.step_index);
  mix(h, ref.attempt);
}

std::uint64_t hash_command(const LocalCommand& command) {
  std::uint64_t h = 0;
  for (const std::string& name : command.remove) {
    for (const char c : name) mix(h, static_cast<std::uint64_t>(c));
  }
  mix(h, 0xabULL);
  for (const std::string& name : command.add) {
    for (const char c : name) mix(h, static_cast<std::uint64_t>(c));
  }
  return h;
}

/// The command of a core that has not been reset yet: a static object behind
/// a pointer that owns nothing, so copying an unreset core writes no
/// reference count that every other copy shares.
const std::shared_ptr<const LocalCommand>& empty_command() {
  static const LocalCommand empty;
  static const std::shared_ptr<const LocalCommand> unowned(std::shared_ptr<const LocalCommand>(),
                                                           &empty);
  return unowned;
}

}  // namespace

AgentCore::AgentCore(AgentConfig config)
    : config_(config), current_command_(empty_command()),
      command_hash_(hash_command(*current_command_)) {}

Output& AgentCore::emit(OutputKind kind) {
  Output& out = out_->emplace_back();
  out.kind = kind;
  if (current_step_) out.ref = *current_step_;
  out.request_id = out.ref.request_id;
  return out;
}

template <typename Msg>
void AgentCore::send(const StepRef& step, Msg prototype) {
  prototype.step = step;
  Output& out = emit(OutputKind::Send);
  out.message = util::make_pooled<Msg>(std::move(prototype));
}

void AgentCore::set_state(AgentState next) {
  if (state_ == next) return;
  Output& out = emit(OutputKind::Transition);
  out.state_from = state_;
  out.state_to = next;
  state_ = next;
}

void AgentCore::arm_pending(Pending kind, runtime::Time delay, const char* label) {
  pending_armed_ = true;
  pending_kind_ = kind;
  pending_label_ = label;
  Output& out = emit(OutputKind::ArmTimer);
  out.delay = delay;
  out.label = label;
}

void AgentCore::cancel_pending() {
  if (!pending_armed_) return;
  pending_armed_ = false;
  Output& out = emit(OutputKind::DisarmTimer);
  out.label = pending_label_;
}

void AgentCore::note_duplicate(const char* type) {
  ++stats_.duplicate_messages;
  Output& out = emit(OutputKind::DuplicateMessage);
  out.label = type;
}

void AgentCore::step(const AgentInput& input, std::vector<Output>& out) {
  out.clear();
  // One up-front block avoids a realloc cascade of ~300-byte Outputs in a
  // fresh buffer; a reused buffer already has it.
  out.reserve(8);
  out_ = &out;
  now_ = input.now;
  if (const auto* msg = std::get_if<AgentInput::MessageDelivered>(&input.event)) {
    on_message(*msg->message);
  } else if (std::get_if<AgentInput::TimerFired>(&input.event) != nullptr) {
    on_timer_fired();
  } else if (const auto* local = std::get_if<AgentLocalEvent>(&input.event)) {
    on_local(*local);
  }
}

void AgentCore::on_message(const runtime::MessagePtr& message) {
  const auto* proto = as_proto(message.get());
  if (proto == nullptr) return;  // non-protocol traffic is the driver's business
  switch (proto->kind()) {
    case MsgKind::Reset:
      on_reset(message, static_cast<const ResetMsg&>(*proto));
      break;
    case MsgKind::Resume:
      on_resume(static_cast<const ResumeMsg&>(*proto));
      break;
    case MsgKind::Rollback:
      on_rollback(static_cast<const RollbackMsg&>(*proto));
      break;
    default:
      break;  // agent-bound traffic only; the driver logs anything else
  }
}

void AgentCore::on_reset(const runtime::MessagePtr& message, const ResetMsg& msg) {
  if (current_step_ && *current_step_ == msg.step && state_ != AgentState::Running) {
    // Retransmission of the step we are working on: re-acknowledge progress.
    note_duplicate("reset");
    if (state_ == AgentState::Safe) {
      send<ResetDoneMsg>(msg.step);
    } else if (state_ == AgentState::Adapted) {
      send<ResetDoneMsg>(msg.step);
      send<AdaptDoneMsg>(msg.step);
    }
    return;
  }
  if (state_ != AgentState::Running) return;  // mid-step on another attempt; ignored
  if (last_completed_ && *last_completed_ == msg.step) {
    note_duplicate("reset");
    ResumeDoneMsg ack;
    ack.blocked_for = last_blocked_for_;
    send<ResumeDoneMsg>(msg.step, std::move(ack));
    return;
  }
  if (last_rolled_back_ && *last_rolled_back_ == msg.step) {
    note_duplicate("reset");
    send<RollbackDoneMsg>(msg.step);
    return;
  }

  // Fresh step: running -> resetting.
  ++stats_.resets_handled;
  current_step_ = msg.step;
  current_command_ = std::shared_ptr<const LocalCommand>(message, &msg.command);
  command_hash_ = hash_command(msg.command);
  sole_participant_ = msg.sole_participant;
  prepared_ = false;
  drain_ = msg.drain;
  set_state(AgentState::Resetting);
  arm_pending(Pending::PreAction, config_.pre_action_duration, "pre-action");
}

void AgentCore::on_timer_fired() {
  if (!pending_armed_) return;  // stale fire (driver generation guard backs this up)
  pending_armed_ = false;
  switch (pending_kind_) {
    case Pending::PreAction: {
      // Pre-action: the driver runs prepare() and reports Prepare{Succeeded,
      // Failed} back; control flow continues in on_local().
      Output& out = emit(OutputKind::ProcessPrepare);
      out.command = current_command_;
      return;
    }
    case Pending::InAction: {
      Output& out = emit(OutputKind::ProcessApply);
      out.command = current_command_;
      return;
    }
    case Pending::Resume:
      finish_resume();
      return;
    case Pending::RollbackUndo: {
      // Undo the in-action, then unblock — the rollback taken from the
      // adapted state.
      const StepRef step = *current_step_;
      Output& undo = emit(OutputKind::ProcessUndo);
      undo.command = current_command_;
      emit(OutputKind::ProcessResume);
      stats_.total_blocked += now_ - blocked_since_;
      ++stats_.rollbacks_performed;
      last_rolled_back_ = step;
      set_state(AgentState::Running);
      current_step_.reset();
      send<RollbackDoneMsg>(step);
      return;
    }
  }
}

void AgentCore::on_local(AgentLocalEvent event) {
  switch (event) {
    case AgentLocalEvent::PrepareSucceeded: {
      prepared_ = true;
      if (config_.fail_to_reset) return;  // injected: never reach the safe state
      safe_wait_ = SafeWait::Reset;
      Output& out = emit(OutputKind::ProcessReachSafe);
      out.flag = drain_;
      return;
    }
    case AgentLocalEvent::PrepareFailed:
      prepared_ = false;  // hold in resetting; the manager's timeout rolls back
      return;
    case AgentLocalEvent::SafeStateReached: {
      const SafeWait why = safe_wait_;
      safe_wait_ = SafeWait::None;
      if (why == SafeWait::Reset) {
        enter_safe_state();
      } else if (why == SafeWait::Compensate) {
        // We resumed proactively (sole participant) but the manager timed out
        // and aborted: undo the in-action and resume the old structure.
        Output& undo = emit(OutputKind::ProcessUndo);
        undo.command = current_command_;
        emit(OutputKind::ProcessResume);
        ++stats_.rollbacks_performed;
        last_rolled_back_ = compensate_step_;
        last_completed_.reset();
        send<RollbackDoneMsg>(compensate_step_);
      }
      return;
    }
    case AgentLocalEvent::ApplySucceeded: {
      ++stats_.adapts_performed;
      set_state(AgentState::Adapted);
      send<AdaptDoneMsg>(*current_step_);
      if (sole_participant_) {
        // Fig. 1: the only process involved proceeds straight to resuming
        // without blocking for the manager's resume message.
        set_state(AgentState::Resuming);
        arm_pending(Pending::Resume, config_.resume_duration, "resume");
      }
      return;
    }
    case AgentLocalEvent::ApplyFailed:
      return;  // hold in safe; the manager's timeout rolls back
  }
}

void AgentCore::enter_safe_state() {
  set_state(AgentState::Safe);
  blocked_since_ = now_;
  send<ResetDoneMsg>(*current_step_);
  arm_pending(Pending::InAction, config_.in_action_duration, "in-action");
}

void AgentCore::finish_resume() {
  emit(OutputKind::ProcessResume);
  last_blocked_for_ = now_ - blocked_since_;
  stats_.total_blocked += last_blocked_for_;
  last_completed_ = *current_step_;
  const StepRef step = *current_step_;
  set_state(AgentState::Running);
  current_step_.reset();
  ResumeDoneMsg ack;
  ack.blocked_for = last_blocked_for_;
  send<ResumeDoneMsg>(step, std::move(ack));
  Output& cleanup = emit(OutputKind::ProcessCleanup);
  cleanup.command = current_command_;
  cleanup.ref = step;
}

void AgentCore::on_resume(const ResumeMsg& msg) {
  if (state_ == AgentState::Adapted && current_step_ && *current_step_ == msg.step) {
    set_state(AgentState::Resuming);
    arm_pending(Pending::Resume, config_.resume_duration, "resume");
    return;
  }
  if (state_ == AgentState::Resuming && current_step_ && *current_step_ == msg.step) {
    note_duplicate("resume");  // ack already on its way
    return;
  }
  if (state_ == AgentState::Running && last_completed_ && *last_completed_ == msg.step) {
    note_duplicate("resume");
    ResumeDoneMsg ack;
    ack.blocked_for = last_blocked_for_;
    send<ResumeDoneMsg>(msg.step, std::move(ack));
    return;
  }
  // Unexpected resume; the driver logs it.
}

void AgentCore::on_rollback(const RollbackMsg& msg) {
  const bool matches_current = current_step_ && *current_step_ == msg.step;
  switch (state_) {
    case AgentState::Resetting:
    case AgentState::Safe: {
      if (!matches_current) break;
      // Pre-action or in-action timer may still be pending; cancel it. No
      // undo is needed: the in-action has not mutated anything yet.
      cancel_pending();
      safe_wait_ = SafeWait::None;  // a late "safe reached" must not re-block
      emit(OutputKind::ProcessAbortSafe);
      ++stats_.rollbacks_performed;
      last_rolled_back_ = msg.step;
      set_state(AgentState::Running);
      current_step_.reset();
      send<RollbackDoneMsg>(msg.step);
      return;
    }
    case AgentState::Adapted: {
      if (!matches_current) break;
      // Undo the in-action, then unblock. Modeled with the in-action
      // duration since it performs the symmetric structural change.
      set_state(AgentState::Resuming);
      arm_pending(Pending::RollbackUndo, config_.in_action_duration, "rollback-undo");
      return;
    }
    case AgentState::Resuming:
      // A rollback racing a resume in flight; ignore — the manager will
      // observe resume done / retry, and the completed path takes over.
      return;
    case AgentState::Running: {
      if (last_rolled_back_ && *last_rolled_back_ == msg.step) {
        note_duplicate("rollback");
        send<RollbackDoneMsg>(msg.step);
        return;
      }
      if (last_completed_ && *last_completed_ == msg.step) {
        // Compensate: re-quiesce, undo the in-action, resume the old
        // structure (continues in on_local / SafeStateReached).
        safe_wait_ = SafeWait::Compensate;
        compensate_step_ = msg.step;
        Output& out = emit(OutputKind::ProcessReachSafe);
        out.flag = false;
        return;
      }
      // Step never reached us (reset lost entirely): nothing to undo.
      send<RollbackDoneMsg>(msg.step);
      return;
    }
  }
  // Unexpected rollback; the driver logs it.
}

void AgentCore::fingerprint(std::uint64_t& h) const {
  mix(h, static_cast<std::uint64_t>(state_));
  mix(h, current_step_.has_value() ? 1 : 0);
  if (current_step_) mix_ref(h, *current_step_);
  mix(h, command_hash_);
  mix(h, sole_participant_ ? 1 : 0);
  mix(h, prepared_ ? 1 : 0);
  mix(h, drain_ ? 1 : 0);
  mix(h, pending_armed_ ? 1 : 0);
  if (pending_armed_) mix(h, static_cast<std::uint64_t>(pending_kind_));
  mix(h, static_cast<std::uint64_t>(safe_wait_));
  if (safe_wait_ == SafeWait::Compensate) mix_ref(h, compensate_step_);
  mix(h, last_completed_.has_value() ? 1 : 0);
  if (last_completed_) mix_ref(h, *last_completed_);
  mix(h, last_rolled_back_.has_value() ? 1 : 0);
  if (last_rolled_back_) mix_ref(h, *last_rolled_back_);
}

}  // namespace sa::proto
