#include "proto/core/manager_core.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <stdexcept>

#include "util/block_pool.hpp"
#include "util/hash.hpp"

namespace sa::proto {

namespace {

using util::hash_mix;

/// Distinct starting values of the fingerprint lanes (digits of pi).
constexpr std::uint64_t kLaneSeeds[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                                         0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};

constexpr std::uint64_t hash_str(const char* s) {
  std::uint64_t h = 0;
  for (; *s != '\0'; ++s) hash_mix(h, static_cast<std::uint64_t>(*s));
  return h;
}

constexpr TimerLabel kResetTimeout{"reset-timeout", hash_str("reset-timeout")};
constexpr TimerLabel kResumeTimeout{"resume-timeout", hash_str("resume-timeout")};
constexpr TimerLabel kRollbackTimeout{"rollback-timeout", hash_str("rollback-timeout")};

}  // namespace

ManagerCore::ManagerCore(const config::InvariantSet& invariants,
                         const actions::ActionTable& table, const actions::PathPlanner& planner,
                         ManagerConfig config)
    : invariants_(&invariants), table_(&table), planner_(&planner), config_(config) {}

void ManagerCore::register_agent(config::ProcessId process, int stage) {
  for (auto& [p, s] : stages_) {
    if (p == process) {
      s = stage;
      return;
    }
  }
  stages_.emplace_back(process, stage);
  std::sort(stages_.begin(), stages_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

int ManagerCore::stage_of(config::ProcessId process) const {
  for (const auto& [p, stage] : stages_) {
    if (p == process) return stage;
  }
  throw std::logic_error("no agent registered for process " + std::to_string(process));
}

bool ManagerCore::has_agent(config::ProcessId process) const {
  for (const auto& [p, stage] : stages_) {
    if (p == process) return true;
  }
  return false;
}

Output& ManagerCore::emit(Outputs& outputs, OutputKind kind) const {
  Output& out = outputs.emplace_back();
  out.kind = kind;
  out.ref = current_ref();
  out.request_id = request_id_;
  return out;
}

void ManagerCore::step(const ManagerInput& input, std::vector<Output>& out) {
  out.clear();
  // One up-front block avoids a realloc cascade of ~300-byte Outputs in a
  // fresh buffer; a reused buffer already has it.
  out.reserve(8);
  if (const auto* cmd = std::get_if<ManagerInput::AdaptCommand>(&input.event)) {
    if (busy()) throw std::logic_error("adaptation request while another is in flight");
    cause_span_ = cmd->cause_span;
    handle_request(out, cmd->target);
  } else if (const auto* msg = std::get_if<ManagerInput::MessageDelivered>(&input.event)) {
    handle_message(out, msg->from, *msg->message);
  } else if (const auto* fired = std::get_if<ManagerInput::TimerFired>(&input.event)) {
    if (fired->timer == ManagerTimer::Protocol) {
      if (!protocol_timer_armed_) return;  // stale fire
      protocol_timer_armed_ = false;
      on_timeout(out);
    } else {
      if (!stage_delay_armed_) return;
      stage_delay_armed_ = false;
      send_stage_resets(out, stage_delay_stage_);
      arm_timer(out, config_.reset_timeout, kResetTimeout);
    }
  }
}

void ManagerCore::set_phase(Outputs& outputs, ManagerPhase next) {
  if (phase_ == next) return;
  Output& out = emit(outputs, OutputKind::Transition);
  out.phase_from = phase_;
  out.phase_to = next;
  phase_ = next;
}

void ManagerCore::send(Outputs& outputs, config::ProcessId to, runtime::MessagePtr message) {
  Output& out = emit(outputs, OutputKind::Send);
  out.process = to;
  out.message = std::move(message);
}

void ManagerCore::arm_timer(Outputs& outputs, runtime::Time timeout, const TimerLabel& label) {
  disarm_timer(outputs);
  protocol_timer_label_ = label;
  protocol_timer_armed_ = true;
  Output& out = emit(outputs, OutputKind::ArmTimer);
  out.timer = ManagerTimer::Protocol;
  out.delay = timeout;
  out.label = label.text;
}

void ManagerCore::disarm_timer(Outputs& outputs) {
  if (protocol_timer_armed_) {
    protocol_timer_armed_ = false;
    Output& out = emit(outputs, OutputKind::DisarmTimer);
    out.timer = ManagerTimer::Protocol;
    out.label = protocol_timer_label_.text;
  }
  if (stage_delay_armed_) {
    stage_delay_armed_ = false;
    Output& out = emit(outputs, OutputKind::DisarmTimer);
    out.timer = ManagerTimer::StageDelay;
    out.label = "inter-stage-delay";
  }
}

LocalCommand ManagerCore::command_for(config::ProcessId process) const {
  const actions::AdaptiveAction& action = table_->action(plan_steps_[step_index_].action);
  const config::Configuration hosted =
      config::Configuration::hosted_by(table_->registry(), process);
  return {action.removes.intersect(hosted), action.adds.intersect(hosted)};
}

void ManagerCore::handle_request(Outputs& outputs, const config::Configuration& target) {
  request_id_ = next_request_id_++;
  source_ = current_;
  target_ = target;
  result_ = AdaptationSummary{};
  returning_to_source_ = false;
  alternatives_tried_ = 0;
  plan_counter_ = 0;

  Output& out = emit(outputs, OutputKind::AdaptationRequested);
  out.name = "adaptation";
  out.config = current_;
  out.payload().target = target;
  out.payload().parent_span = cause_span_;

  if (current_ == target_) {
    finish(outputs, AdaptationOutcome::Success, {.text = "already at target configuration"});
    return;
  }
  set_phase(outputs, ManagerPhase::Preparing);
  const auto plan = planner_->minimum_path(current_, target_);
  if (!plan || plan->empty()) {
    finish(outputs, AdaptationOutcome::NoPathFound,
           {.text = "no safe adaptation path from ",
            .form = OutcomeReason::Form::Path,
            .config = current_,
            .target = target_});
    return;
  }
  start_plan(outputs, *plan);
}

void ManagerCore::start_plan(Outputs& outputs, const actions::AdaptationPlan& plan) {
  plan_steps_.clear();
  plan_hash_ = 0;
  for (const actions::PlanStep& s : plan.steps) {
    plan_steps_.push_back(PlanStep{s.action, s.to});
    hash_mix(plan_hash_, s.action);
    hash_mix(plan_hash_, s.to.bits());
  }
  plan_number_ = plan_counter_++;
  step_index_ = 0;
  step_attempt_ = 0;
  Output& out = emit(outputs, OutputKind::PlanComputed);
  out.name = "map";
  out.value = plan.total_cost;
  out.has_value = true;
  for (const PlanStep& s : plan_steps_) out.payload().plan.push_back(s.action);
  execute_current_step(outputs);
}

void ManagerCore::execute_current_step(Outputs& outputs) {
  const PlanStep& plan_step = plan_steps_[step_index_];
  const actions::AdaptiveAction& action = table_->action(plan_step.action);
  const auto& registry = table_->registry();

  // The processes hosting a component the action removes or adds, ascending:
  // AdaptiveAction::affected_processes, filled in place because every step
  // attempt runs this and that function builds two vectors.
  involved_.clear();
  for (std::uint64_t touched = action.removes.unite(action.adds).bits(); touched != 0;
       touched &= touched - 1) {
    const config::ProcessId process =
        registry.process(static_cast<config::ComponentId>(std::countr_zero(touched)));
    if (std::find(involved_.begin(), involved_.end(), process) == involved_.end()) {
      involved_.push_back(process);
    }
  }
  std::sort(involved_.begin(), involved_.end());
  for (const config::ProcessId process : involved_) {
    if (!has_agent(process)) {
      throw std::logic_error("no agent registered for process " + std::to_string(process));
    }
  }
  // Stage ordering + drain flags: upstream agents quiesce first; agents
  // beyond the step's minimum involved stage drain their input queues so the
  // global safe condition (receivers processed everything senders emitted)
  // holds before any in-action.
  min_stage_ = stage_of(involved_.front());
  int max_stage = min_stage_;
  for (const config::ProcessId process : involved_) {
    min_stage_ = std::min(min_stage_, stage_of(process));
    max_stage = std::max(max_stage, stage_of(process));
  }
  drain_set_.clear();
  for (const config::ProcessId process : involved_) {
    if (max_stage > min_stage_ && stage_of(process) > min_stage_) drain_set_.insert(process);
  }

  reset_acked_.clear();
  adapt_acked_.clear();
  resume_acked_.clear();
  rollback_acked_.clear();
  resume_sent_ = false;
  retries_left_ = config_.message_retries;
  current_stage_ = min_stage_;

  set_phase(outputs, ManagerPhase::Adapting);
  Output& out = emit(outputs, OutputKind::StepStarted);
  out.name = action.name;
  out.action = plan_step.action;
  out.value = static_cast<double>(involved_.size());
  out.has_value = true;
  send_stage_resets(outputs, current_stage_);
  arm_timer(outputs, config_.reset_timeout, kResetTimeout);
}

void ManagerCore::send_stage_resets(Outputs& outputs, int stage) {
  for (const config::ProcessId process : involved_) {
    if (stage_of(process) != stage) continue;
    auto msg = util::make_pooled<ResetMsg>();
    msg->step = current_ref();
    msg->command = command_for(process);
    msg->drain = drain_set_.contains(process);
    msg->sole_participant = involved_.size() == 1;
    send(outputs, process, std::move(msg));
  }
}

void ManagerCore::maybe_advance_stage(Outputs& outputs) {
  // All resets of stages <= current acknowledged?
  for (const config::ProcessId process : involved_) {
    if (stage_of(process) <= current_stage_ && !reset_acked_.contains(process)) return;
  }
  // Find the next involved stage.
  int next_stage = INT_MAX;
  for (const config::ProcessId process : involved_) {
    const int stage = stage_of(process);
    if (stage > current_stage_) next_stage = std::min(next_stage, stage);
  }
  if (next_stage == INT_MAX) return;  // no further stages
  // Let in-flight application data reach the downstream processes before
  // asking them to drain and block.
  current_stage_ = next_stage;
  stage_delay_stage_ = next_stage;
  stage_delay_armed_ = true;
  Output& out = emit(outputs, OutputKind::ArmTimer);
  out.timer = ManagerTimer::StageDelay;
  out.delay = config_.inter_stage_delay;
  out.label = "inter-stage-delay";
}

void ManagerCore::handle_message(Outputs& outputs, config::ProcessId from,
                                 const runtime::MessagePtr& message) {
  const auto* proto = as_proto(message.get());
  if (!proto) return;  // the driver warns about non-protocol traffic
  if (!(proto->step == current_ref())) return;  // stale step attempt
  switch (proto->kind()) {
    case MsgKind::ResetDone:
      on_reset_done(outputs, from);
      break;
    case MsgKind::AdaptDone:
      on_adapt_done(outputs, from);
      break;
    case MsgKind::ResumeDone:
      on_resume_done(outputs, from, static_cast<const ResumeDoneMsg&>(*proto));
      break;
    case MsgKind::RollbackDone:
      on_rollback_done(outputs, from);
      break;
    default:
      break;  // manager-bound traffic only; the driver logs anything else
  }
}

void ManagerCore::on_reset_done(Outputs& outputs, config::ProcessId process) {
  if (phase_ != ManagerPhase::Adapting) return;
  if (reset_acked_.insert(process)) {
    Output& out = emit(outputs, OutputKind::ResetAcked);
    out.process = process;
  }
  maybe_advance_stage(outputs);
}

std::size_t ManagerCore::adapt_quorum() const {
  // Test-only mutation: claim the global safe state one ack early (§4.3
  // violation) so the explorer can prove it has teeth.
  if (fault_ == ManagerFault::ResumeBeforeLastAdaptDone && involved_.size() >= 2) {
    return involved_.size() - 1;
  }
  return involved_.size();
}

void ManagerCore::on_adapt_done(Outputs& outputs, config::ProcessId process) {
  if (phase_ != ManagerPhase::Adapting) return;
  reset_acked_.insert(process);  // adapt done implies the reset completed
  adapt_acked_.insert(process);
  if (adapt_acked_.size() >= adapt_quorum()) {
    set_phase(outputs, ManagerPhase::Adapted);
    enter_resuming(outputs);
  }
}

void ManagerCore::enter_resuming(Outputs& outputs) {
  set_phase(outputs, ManagerPhase::Resuming);
  resume_sent_ = true;
  retries_left_ = config_.message_retries + config_.run_to_completion_retries;
  for (const config::ProcessId process : involved_) {
    auto msg = util::make_pooled<ResumeMsg>();
    msg->step = current_ref();
    send(outputs, process, std::move(msg));
  }
  arm_timer(outputs, config_.resume_timeout, kResumeTimeout);
}

void ManagerCore::on_resume_done(Outputs& outputs, config::ProcessId process,
                                 const ResumeDoneMsg& msg) {
  if (phase_ == ManagerPhase::Adapting) {
    // A sole participant resumed proactively and its adapt done was lost:
    // the resume done subsumes it.
    reset_acked_.insert(process);
    adapt_acked_.insert(process);
    resume_acked_.insert(process);
    Output& blocked = emit(outputs, OutputKind::BlockedObserved);
    blocked.process = process;
    blocked.blocked = msg.blocked_for;
    if (adapt_acked_.size() == involved_.size()) {
      set_phase(outputs, ManagerPhase::Adapted);
      enter_resuming(outputs);
      resume_acked_.insert(process);
      if (resume_acked_.size() == involved_.size()) commit_step(outputs);
    }
    return;
  }
  if (phase_ != ManagerPhase::Resuming) return;
  if (resume_acked_.insert(process)) {
    Output& blocked = emit(outputs, OutputKind::BlockedObserved);
    blocked.process = process;
    blocked.blocked = msg.blocked_for;
  }
  if (resume_acked_.size() == involved_.size()) commit_step(outputs);
}

void ManagerCore::commit_step(Outputs& outputs) {
  disarm_timer(outputs);
  set_phase(outputs, ManagerPhase::Resumed);
  current_ = plan_steps_[step_index_].to;
  ++result_.steps_committed;
  Output& out = emit(outputs, OutputKind::StepCommitted);
  out.name = table_->action(plan_steps_[step_index_].action).name;
  out.config = current_;
  if (step_index_ + 1 < plan_steps_.size()) {
    ++step_index_;
    step_attempt_ = 0;
    execute_current_step(outputs);
    return;
  }
  if (returning_to_source_) {
    finish(outputs, AdaptationOutcome::RolledBackToSource,
           {.text = "returned to source configuration"});
  } else {
    finish(outputs, AdaptationOutcome::Success, {.text = "target configuration reached"});
  }
}

template <typename Msg>
void ManagerCore::retransmit_unacked(Outputs& outputs, const char* phase_label,
                                     const util::IdSet64& acked, runtime::Time timeout,
                                     const TimerLabel& timer_label) {
  --retries_left_;
  ++result_.message_retries;
  Output& note = emit(outputs, OutputKind::Retransmission);
  note.label = phase_label;
  const StepRef ref = current_ref();
  for (const config::ProcessId process : involved_) {
    if (!acked.contains(process)) {
      auto msg = util::make_pooled<Msg>();
      msg->step = ref;
      send(outputs, process, std::move(msg));
    }
  }
  arm_timer(outputs, timeout, timer_label);
}

void ManagerCore::on_timeout(Outputs& outputs) {
  switch (phase_) {
    case ManagerPhase::Adapting: {
      if (retries_left_ > 0) {
        --retries_left_;
        ++result_.message_retries;
        Output& note = emit(outputs, OutputKind::Retransmission);
        note.label = "adapting";
        // Retransmit resets to every triggered stage with an agent that has
        // not yet finished its in-action; agents re-acknowledge idempotently.
        // Stages of involved processes are the registration stages, small
        // non-negative ints in practice — collect ascending and dedup flat.
        util::SmallVector<int, 8> stages_to_resend;
        for (const config::ProcessId process : involved_) {
          const int stage = stage_of(process);
          if (stage <= current_stage_ && !adapt_acked_.contains(process)) {
            stages_to_resend.push_back(stage);
          }
        }
        std::sort(stages_to_resend.begin(), stages_to_resend.end());
        const int* const last = std::unique(stages_to_resend.begin(), stages_to_resend.end());
        for (const int* stage = stages_to_resend.begin(); stage != last; ++stage) {
          send_stage_resets(outputs, *stage);
        }
        maybe_advance_stage(outputs);
        arm_timer(outputs, config_.reset_timeout, kResetTimeout);
        return;
      }
      begin_rollback(outputs);
      return;
    }
    case ManagerPhase::Resuming: {
      if (retries_left_ > 0) {
        retransmit_unacked<ResumeMsg>(outputs, "resuming", resume_acked_, config_.resume_timeout,
                                      kResumeTimeout);
        return;
      }
      if (fault_ == ManagerFault::RollbackAfterResume) {
        begin_rollback(outputs);  // test-only §4.4 violation
        return;
      }
      // §4.4: after the first resume the adaptation must run to completion;
      // if acknowledgements never arrive the structure is adapted everywhere
      // (all adapt done collected) so the step is committed, but the operator
      // is told the protocol stalled.
      current_ = plan_steps_[step_index_].to;
      ++result_.steps_committed;
      Output& out = emit(outputs, OutputKind::StepCommitted);
      out.name = table_->action(plan_steps_[step_index_].action).name;
      out.config = current_;
      out.flag = true;  // stalled
      finish(outputs, AdaptationOutcome::StalledAfterResume,
             {.text = "resume unacknowledged by ",
              .form = OutcomeReason::Form::Count,
              .count = involved_.size() - resume_acked_.size()});
      return;
    }
    case ManagerPhase::RollingBack: {
      if (retries_left_ > 0) {
        retransmit_unacked<RollbackMsg>(outputs, "rolling-back", rollback_acked_,
                                        config_.rollback_timeout, kRollbackTimeout);
        return;
      }
      finish(outputs, AdaptationOutcome::UserInterventionRequired,
             {.text = "rollback unacknowledged; agent states unknown"});
      return;
    }
    default:
      break;  // timeout in an unexpected phase; the driver logs it
  }
}

void ManagerCore::begin_rollback(Outputs& outputs) {
  set_phase(outputs, ManagerPhase::RollingBack);
  disarm_timer(outputs);
  rollback_acked_.clear();
  retries_left_ = config_.message_retries;
  const StepRef ref = current_ref();
  for (const config::ProcessId process : involved_) {
    auto msg = util::make_pooled<RollbackMsg>();
    msg->step = ref;
    send(outputs, process, std::move(msg));
  }
  arm_timer(outputs, config_.rollback_timeout, kRollbackTimeout);
}

void ManagerCore::on_rollback_done(Outputs& outputs, config::ProcessId process) {
  if (phase_ != ManagerPhase::RollingBack) return;
  rollback_acked_.insert(process);
  if (rollback_acked_.size() == involved_.size()) step_failed_after_rollback(outputs);
}

void ManagerCore::step_failed_after_rollback(Outputs& outputs) {
  disarm_timer(outputs);
  ++result_.step_failures;
  Output& out = emit(outputs, OutputKind::StepRolledBack);
  out.name = table_->action(plan_steps_[step_index_].action).name;
  try_next_strategy(outputs);
}

void ManagerCore::try_next_strategy(Outputs& outputs) {
  // §4.4 strategy chain: (1) retry the step, (2) next-minimum path,
  // (3) return to source, (4) wait for user intervention.
  if (static_cast<int>(step_attempt_) < config_.step_retries) {
    ++step_attempt_;
    execute_current_step(outputs);
    return;
  }
  const config::Configuration active_target = returning_to_source_ ? source_ : target_;
  ++alternatives_tried_;
  if (alternatives_tried_ <= config_.max_alternative_paths && !(current_ == active_target)) {
    const auto plans = planner_->ranked_paths(current_, active_target, alternatives_tried_ + 1);
    if (plans.size() > alternatives_tried_) {
      ++result_.plans_tried;
      start_plan(outputs, plans[alternatives_tried_]);
      return;
    }
  }
  if (!returning_to_source_ && config_.allow_return_to_source) {
    returning_to_source_ = true;
    alternatives_tried_ = 0;
    if (current_ == source_) {
      finish(outputs, AdaptationOutcome::RolledBackToSource,
             {.text = "failed before leaving source configuration"});
      return;
    }
    const auto plan = planner_->minimum_path(current_, source_);
    if (plan && !plan->empty()) {
      ++result_.plans_tried;
      start_plan(outputs, *plan);
      return;
    }
  }
  finish(outputs, AdaptationOutcome::UserInterventionRequired,
         {.text = "all adaptation paths failed; system parked at ",
          .form = OutcomeReason::Form::Config,
          .config = current_});
}

void ManagerCore::finish(Outputs& outputs, AdaptationOutcome outcome, const OutcomeReason& reason) {
  disarm_timer(outputs);
  set_phase(outputs, ManagerPhase::Running);
  result_.outcome = outcome;
  result_.final_config = current_;
  Output& out = emit(outputs, OutputKind::Outcome);
  out.name = to_string(outcome);
  out.config = result_.final_config;
  OutputPayload& more = out.payload();
  more.parent_span = cause_span_;
  more.result = result_;
  more.reason = reason;
}

std::string describe(const OutcomeReason& reason, const config::ComponentRegistry& registry) {
  std::string text = reason.text;
  switch (reason.form) {
    case OutcomeReason::Form::Plain:
      break;
    case OutcomeReason::Form::Count:
      text += std::to_string(reason.count) + " agent(s)";
      break;
    case OutcomeReason::Form::Config:
      text += reason.config.describe(registry);
      break;
    case OutcomeReason::Form::Path:
      text += reason.config.describe(registry) + " to " + reason.target.describe(registry);
      break;
  }
  return text;
}

// The fingerprints spread the fields over four lanes, each its own hash
// chain, and fold the lanes into `h` at the end: the CPU advances the four
// chains at once instead of waiting on one serial chain of ~25 mixes.

void ManagerCore::mix_request_lanes(std::uint64_t (&lane)[4]) const {
  hash_mix(lane[0], static_cast<std::uint64_t>(phase_));
  hash_mix(lane[1], request_id_);
  hash_mix(lane[2], current_.bits());
  hash_mix(lane[3], source_.bits());
  hash_mix(lane[0], target_.bits());
  hash_mix(lane[1], returning_to_source_ ? 1 : 0);
  hash_mix(lane[2], alternatives_tried_);
  hash_mix(lane[3], plan_number_);
  hash_mix(lane[0], plan_counter_);
  hash_mix(lane[1], step_index_);
  hash_mix(lane[2], step_attempt_);
  hash_mix(lane[3], plan_hash_);
}

void ManagerCore::mix_timer_lanes(std::uint64_t (&lane)[4]) const {
  hash_mix(lane[0], resume_sent_ ? 1 : 0);
  hash_mix(lane[1], static_cast<std::uint64_t>(retries_left_));
  hash_mix(lane[2], protocol_timer_armed_ ? 1 : 0);
  if (protocol_timer_armed_) hash_mix(lane[2], protocol_timer_label_.hash);
  hash_mix(lane[3], stage_delay_armed_ ? 1 : 0);
  hash_mix(lane[3], static_cast<std::uint64_t>(stage_delay_stage_));
}

void ManagerCore::fingerprint(std::uint64_t& h) const {
  std::uint64_t lane[4] = {kLaneSeeds[0], kLaneSeeds[1], kLaneSeeds[2], kLaneSeeds[3]};
  mix_request_lanes(lane);
  for (const config::ProcessId p : involved_) hash_mix(lane[0], p);
  hash_mix(lane[1], drain_set_.mask());
  hash_mix(lane[2], static_cast<std::uint64_t>(current_stage_));
  hash_mix(lane[3], static_cast<std::uint64_t>(min_stage_));
  // Bitmask sets hash in O(1): the mask is the canonical set value.
  hash_mix(lane[0], reset_acked_.mask());
  hash_mix(lane[1], adapt_acked_.mask());
  hash_mix(lane[2], resume_acked_.mask());
  hash_mix(lane[3], rollback_acked_.mask());
  mix_timer_lanes(lane);
  for (const std::uint64_t v : lane) hash_mix(h, v);
}

void ManagerCore::fingerprint_shared(std::uint64_t& h) const {
  std::uint64_t lane[4] = {kLaneSeeds[0], kLaneSeeds[1], kLaneSeeds[2], kLaneSeeds[3]};
  mix_request_lanes(lane);
  // Per-process membership (involved/drain/acked sets) is deliberately left
  // out — it is folded into each agent's orbit sub-fingerprint via
  // process_fingerprint(), so states that differ only by a permutation of
  // interchangeable agents hash identically. Cardinalities stay here: they
  // are permutation-invariant and cheap insurance against orbit collisions.
  hash_mix(lane[0], involved_.size());
  hash_mix(lane[1], drain_set_.size());
  hash_mix(lane[2], static_cast<std::uint64_t>(current_stage_));
  hash_mix(lane[3], static_cast<std::uint64_t>(min_stage_));
  hash_mix(lane[0], reset_acked_.size());
  hash_mix(lane[1], adapt_acked_.size());
  hash_mix(lane[2], resume_acked_.size());
  hash_mix(lane[3], rollback_acked_.size());
  mix_timer_lanes(lane);
  for (const std::uint64_t v : lane) hash_mix(h, v);
}

std::uint64_t ManagerCore::process_fingerprint(config::ProcessId process) const {
  std::uint64_t bits = 0;
  for (const config::ProcessId p : involved_) {
    if (p == process) {
      bits |= 1U;
      break;
    }
  }
  if (drain_set_.contains(process)) bits |= 1U << 1;
  if (reset_acked_.contains(process)) bits |= 1U << 2;
  if (adapt_acked_.contains(process)) bits |= 1U << 3;
  if (resume_acked_.contains(process)) bits |= 1U << 4;
  if (rollback_acked_.contains(process)) bits |= 1U << 5;
  return bits;
}

}  // namespace sa::proto
