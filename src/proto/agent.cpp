#include "proto/agent.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace sa::proto {

AdaptationAgent::AdaptationAgent(runtime::Clock& clock, runtime::Transport& transport,
                                 runtime::NodeId node, runtime::NodeId manager_node,
                                 AdaptableProcess& process, AgentConfig config)
    : clock_(&clock), transport_(&transport), node_(node), manager_(manager_node),
      process_(&process), core_(config), trace_(clock),
      pending_(clock, trace_, mutex_, [this] { dispatch(AgentInput::TimerFired{}); },
               [this] {
                 const auto& step = core_.current_step();
                 return step ? coords_of(*step) : obs::StepCoords{};
               }) {
  transport_->set_handler(node_, [this](runtime::NodeId from, runtime::MessagePtr message) {
    on_message(from, std::move(message));
  });
}

AdaptationAgent::~AdaptationAgent() { transport_->set_handler(node_, nullptr); }

void AdaptationAgent::set_observability(obs::TraceRecorder* recorder,
                                        obs::MetricsRegistry* metrics, std::int64_t track) {
  std::lock_guard lock(mutex_);
  trace_.attach(recorder, metrics, track);
}

void AdaptationAgent::on_message(runtime::NodeId from, runtime::MessagePtr message) {
  std::lock_guard lock(mutex_);
  if (from != manager_) {
    SA_WARN("agent") << "node " << node_ << ": message from non-manager node " << from;
    return;
  }
  const ProtoMessage* proto = as_proto(message.get());
  if (proto == nullptr || (proto->kind() != MsgKind::Reset && proto->kind() != MsgKind::Resume &&
                           proto->kind() != MsgKind::Rollback)) {
    SA_WARN("agent") << "node " << node_ << ": unexpected message " << message->type_name();
    return;
  }
  dispatch(AgentInput::MessageDelivered{&message});
}

void AdaptationAgent::dispatch(decltype(AgentInput::event) event) {
  std::vector<Output> outputs;
  core_.step(AgentInput{clock_->now(), std::move(event)}, outputs);
  apply(outputs);
}

void AdaptationAgent::apply(const std::vector<Output>& outputs) {
  for (const Output& out : outputs) {
    switch (out.kind) {
      case OutputKind::Send:
        transport_->send(node_, manager_, out.message);
        break;
      case OutputKind::ArmTimer:
        pending_.arm(out);
        break;
      case OutputKind::DisarmTimer:
        pending_.disarm(out);
        break;
      case OutputKind::Transition:
        if (trace_.wants(obs::EventKind::AgentState)) {
          trace_.record(transition_event(obs::EventKind::AgentState, out, manager_));
        }
        break;
      case OutputKind::DuplicateMessage:
        if (obs::MetricsRegistry* metrics = trace_.metrics()) {
          metrics
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

}  // namespace sa::proto
