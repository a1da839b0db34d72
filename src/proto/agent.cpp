#include "proto/agent.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "util/log.hpp"

namespace sa::proto {

namespace {

obs::StepCoords coords_of(const StepRef& ref) {
  return obs::StepCoords{ref.request_id, ref.plan, ref.step_index, ref.attempt};
}

}  // namespace

AdaptationAgent::AdaptationAgent(runtime::Clock& clock, runtime::Transport& transport,
                                 runtime::NodeId node, runtime::NodeId manager_node,
                                 AdaptableProcess& process, AgentConfig config)
    : clock_(&clock), transport_(&transport), node_(node), manager_(manager_node),
      process_(&process), core_(config) {
  transport_->set_handler(node_, [this](runtime::NodeId from, runtime::MessagePtr message) {
    on_message(from, std::move(message));
  });
}

AdaptationAgent::~AdaptationAgent() { transport_->set_handler(node_, nullptr); }

void AdaptationAgent::set_observability(obs::TraceRecorder* recorder,
                                        obs::MetricsRegistry* metrics, std::int64_t track) {
  std::lock_guard lock(mutex_);
  recorder_ = recorder;
  metrics_ = metrics;
  track_ = track;
}

bool AdaptationAgent::tracing_enabled() const { return recorder_->enabled(); }

bool AdaptationAgent::recorder_wants(obs::EventKind kind) const {
  return recorder_->wants(kind);
}

void AdaptationAgent::trace_event(obs::Event event) {
  event.time = clock_->now();
  event.track = track_;
  recorder_->record(std::move(event));
}

void AdaptationAgent::on_message(runtime::NodeId from, runtime::MessagePtr message) {
  std::lock_guard lock(mutex_);
  if (from != manager_) {
    SA_WARN("agent") << "node " << node_ << ": message from non-manager node " << from;
    return;
  }
  if (dynamic_cast<const ResetMsg*>(message.get()) == nullptr &&
      dynamic_cast<const ResumeMsg*>(message.get()) == nullptr &&
      dynamic_cast<const RollbackMsg*>(message.get()) == nullptr) {
    SA_WARN("agent") << "node " << node_ << ": unexpected message " << message->type_name();
    return;
  }
  dispatch(AgentInput::MessageDelivered{std::move(message)});
}

void AdaptationAgent::dispatch(AgentInput::MessageDelivered delivered) {
  std::vector<Output> outputs;
  core_.step(AgentInput{clock_->now(), std::move(delivered)}, outputs);
  apply(outputs);
}

void AdaptationAgent::dispatch(AgentInput::TimerFired fired) {
  std::vector<Output> outputs;
  core_.step(AgentInput{clock_->now(), fired}, outputs);
  apply(outputs);
}

void AdaptationAgent::dispatch(AgentLocalEvent event) {
  std::vector<Output> outputs;
  core_.step(AgentInput{clock_->now(), event}, outputs);
  apply(outputs);
}

void AdaptationAgent::apply(const std::vector<Output>& outputs) {
  for (const Output& out : outputs) {
    switch (out.kind) {
      case OutputKind::Send:
        transport_->send(node_, manager_, out.message);
        break;
      case OutputKind::ArmTimer:
        apply_arm_timer(out);
        break;
      case OutputKind::DisarmTimer:
        apply_disarm_timer(out);
        break;
      case OutputKind::Transition:
        if (tracing(obs::EventKind::AgentState)) {
          obs::Event e;
          e.kind = obs::EventKind::AgentState;
          e.name = std::string(to_string(out.state_to));
          e.detail = std::string(to_string(out.state_from));
          e.coords = coords_of(out.ref);
          if (out.ref.request_id != 0) {
            // Both ends derive the request span from the manager's node id,
            // so agent transitions link into the same causal tree without
            // widening the wire messages.
            e.parent_span = span_of(manager_, SpanKind::Request, out.ref.request_id);
          }
          trace_event(std::move(e));
        }
        break;
      case OutputKind::DuplicateMessage:
        if (metrics_ != nullptr) {
          metrics_
              ->counter("sa_duplicate_protocol_messages_total", {{"type", out.label}},
                        "Retransmitted / duplicated protocol messages seen by agents")
              .inc();
        }
        break;
      case OutputKind::ProcessPrepare:
        if (process_->prepare(*out.command)) {
          dispatch(AgentLocalEvent::PrepareSucceeded);
        } else {
          SA_WARN("agent") << "node " << node_
                           << ": pre-action failed; holding in resetting state";
          dispatch(AgentLocalEvent::PrepareFailed);
        }
        break;
      case OutputKind::ProcessReachSafe:
        process_->reach_safe_state(out.flag, [this] {
          std::lock_guard lock(mutex_);
          dispatch(AgentLocalEvent::SafeStateReached);
        });
        break;
      case OutputKind::ProcessAbortSafe:
        process_->abort_safe_state();
        break;
      case OutputKind::ProcessApply:
        if (process_->apply(*out.command)) {
          dispatch(AgentLocalEvent::ApplySucceeded);
        } else {
          SA_WARN("agent") << "node " << node_ << ": in-action failed; holding in safe state";
          dispatch(AgentLocalEvent::ApplyFailed);
        }
        break;
      case OutputKind::ProcessUndo:
        process_->undo(*out.command);
        break;
      case OutputKind::ProcessResume:
        process_->resume();
        break;
      case OutputKind::ProcessCleanup:
        process_->cleanup(*out.command);
        break;
      default:
        break;  // manager-only kinds never appear in agent output
    }
  }
}

void AdaptationAgent::apply_arm_timer(const Output& out) {
  if (tracing(obs::EventKind::TimerArmed)) {
    obs::Event e;
    e.kind = obs::EventKind::TimerArmed;
    e.coords = coords_of(out.ref);
    e.name = out.label;
    e.value = static_cast<double>(out.delay);
    e.has_value = true;
    trace_event(std::move(e));
  }
  // The generation guard defuses stale fires on the threaded backend: once
  // the timer thread has dequeued the callback, cancel() returns false and
  // the callback will still run, but it then observes a newer generation and
  // bails instead of acting for a step it no longer belongs to. On the
  // simulator cancel() always wins, so the guard never trips.
  const char* label = out.label;
  const std::uint64_t gen = ++pending_gen_;
  pending_event_ = clock_->schedule_after(out.delay, [this, gen, label] {
    std::lock_guard lock(mutex_);
    if (gen != pending_gen_) return;  // cancelled or superseded after dequeue
    pending_event_ = 0;
    if (tracing(obs::EventKind::TimerFired)) {
      obs::Event e;
      e.kind = obs::EventKind::TimerFired;
      if (core_.current_step()) e.coords = coords_of(*core_.current_step());
      e.name = label;
      trace_event(std::move(e));
    }
    dispatch(AgentInput::TimerFired{});
  });
}

void AdaptationAgent::apply_disarm_timer(const Output& out) {
  if (pending_event_ != 0) {
    clock_->cancel(pending_event_);
    pending_event_ = 0;
    if (tracing(obs::EventKind::TimerCancelled)) {
      obs::Event e;
      e.kind = obs::EventKind::TimerCancelled;
      e.coords = coords_of(out.ref);
      e.name = out.label;
      trace_event(std::move(e));
    }
  }
  ++pending_gen_;  // invalidate a fire that cancel() was too late to stop
}

}  // namespace sa::proto
