#include "proto/manager.hpp"

#include <stdexcept>
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

AdaptationManager::AdaptationManager(runtime::Runtime& rt, runtime::NodeId node,
                                     const config::InvariantSet& invariants,
                                     const actions::ActionTable& table, ManagerConfig config)
    : clock_(&rt.clock()),
      executor_(&rt.executor()),
      transport_(&rt.transport()),
      node_(node),
      table_(&table),
      // Detection-and-setup phase steps 1-2 (§4.2): safe configuration set + SAG.
      safe_configs_(config::enumerate_safe_pruned(invariants)),
      sag_(std::make_unique<actions::SafeAdaptationGraph>(table, safe_configs_)),
      planner_(std::make_unique<actions::PathPlanner>(*sag_)),
      core_(invariants, table, *planner_, config) {
  transport_->set_handler(node_, [this](runtime::NodeId from, runtime::MessagePtr message) {
    on_message(from, std::move(message));
  });
}

// Detach before members die; on the threaded backend this waits out any
// in-flight delivery so a late ack cannot land in a half-destroyed manager.
AdaptationManager::~AdaptationManager() { transport_->set_handler(node_, nullptr); }

void AdaptationManager::set_observability(obs::TraceRecorder* recorder,
                                          obs::MetricsRegistry* metrics) {
  std::lock_guard lock(mutex_);
  recorder_ = recorder;
  metrics_ = metrics;
}

bool AdaptationManager::tracing_enabled() const { return recorder_->enabled(); }

bool AdaptationManager::recorder_wants(obs::EventKind kind) const {
  return recorder_->wants(kind);
}

void AdaptationManager::trace_event(obs::Event event) {
  event.time = clock_->now();
  if (event.track == obs::kNoTrack) event.track = obs::kManagerTrack;
  recorder_->record(std::move(event));
}

void AdaptationManager::observe_blocked(config::ProcessId process, runtime::Time blocked) {
  total_blocked_reported_ += blocked;
  if (metrics_ != nullptr) {
    metrics_
        ->histogram("sa_blocked_time_us", obs::default_time_buckets_us(),
                    {{"process", std::to_string(process)}},
                    "Per-step blocked time reported by each process")
        .observe(static_cast<double>(blocked));
  }
}

void AdaptationManager::register_agent(config::ProcessId process, runtime::NodeId agent_node,
                                       int stage) {
  std::lock_guard lock(mutex_);
  agents_[process] = AgentEndpoint{agent_node, stage};
  core_.register_agent(process, stage);
}

std::optional<config::ProcessId> AdaptationManager::process_of_node(runtime::NodeId node) const {
  for (const auto& [process, endpoint] : agents_) {
    if (endpoint.node == node) return process;
  }
  return std::nullopt;
}

void AdaptationManager::request_adaptation(config::Configuration target,
                                           CompletionHandler handler,
                                           std::uint64_t cause_span) {
  std::lock_guard lock(mutex_);
  if (core_.busy()) throw std::logic_error("adaptation request while another is in flight");
  handler_ = std::move(handler);
  dispatch(ManagerInput::AdaptCommand{std::move(target), cause_span});
}

void AdaptationManager::enqueue_adaptation(config::Configuration target,
                                           CompletionHandler handler,
                                           std::uint64_t cause_span) {
  std::lock_guard lock(mutex_);
  if (!core_.busy() && pending_requests_.empty()) {
    request_adaptation(std::move(target), std::move(handler), cause_span);
    return;
  }
  pending_requests_.push_back(PendingRequest{std::move(target), std::move(handler), cause_span});
}

void AdaptationManager::on_message(runtime::NodeId from, runtime::MessagePtr message) {
  std::lock_guard lock(mutex_);
  const auto process = process_of_node(from);
  if (!process) {
    SA_WARN("manager") << "message from unregistered node " << from;
    return;
  }
  const auto* proto = dynamic_cast<const ProtoMessage*>(message.get());
  if (!proto) {
    SA_WARN("manager") << "non-protocol message " << message->type_name();
    return;
  }
  if (!(proto->step == core_.current_ref())) {
    SA_DEBUG("manager") << "stale " << message->type_name() << " " << proto->step.describe()
                        << " (expected " << core_.current_ref().describe() << ")";
    return;
  }
  dispatch(ManagerInput::MessageDelivered{*process, std::move(message)});
}

void AdaptationManager::dispatch(ManagerInput::AdaptCommand cmd) {
  std::vector<Output> outputs;
  core_.step(ManagerInput{clock_->now(), std::move(cmd)}, outputs);
  apply(outputs);
}

void AdaptationManager::dispatch(ManagerInput::MessageDelivered delivered) {
  std::vector<Output> outputs;
  core_.step(ManagerInput{clock_->now(), std::move(delivered)}, outputs);
  apply(outputs);
}

void AdaptationManager::dispatch(ManagerInput::TimerFired fired) {
  std::vector<Output> outputs;
  core_.step(ManagerInput{clock_->now(), fired}, outputs);
  apply(outputs);
}

void AdaptationManager::apply(const std::vector<Output>& outputs) {
  for (const Output& out : outputs) {
    switch (out.kind) {
      case OutputKind::Send:
        transport_->send(node_, agents_.at(out.process).node, out.message);
        break;
      case OutputKind::ArmTimer:
        apply_arm_timer(out);
        break;
      case OutputKind::DisarmTimer:
        apply_disarm_timer(out);
        break;
      case OutputKind::Transition:
        if (tracing(obs::EventKind::ManagerPhase)) {
          obs::Event e;
          e.kind = obs::EventKind::ManagerPhase;
          e.name = std::string(to_string(out.phase_to));
          e.detail = std::string(to_string(out.phase_from));
          e.coords.request = out.request_id;
          trace_event(std::move(e));
        }
        break;
      case OutputKind::StepStarted: {
        StepRecord record;
        record.ref = out.ref;
        record.action_name = out.name;
        record.started = clock_->now();
        step_log_.push_back(record);
        if (tracing(obs::EventKind::StepStarted)) {
          obs::Event e;
          e.kind = obs::EventKind::StepStarted;
          e.coords = coords_of(out.ref);
          e.name = out.name;
          e.detail = out.detail;
          e.value = out.value;
          e.has_value = true;
          trace_event(std::move(e));
        }
        SA_INFO("manager") << "step " << out.ref.describe() << ": " << out.name << " ("
                           << out.detail << "), " << static_cast<std::size_t>(out.value)
                           << " process(es)";
        break;
      }
      case OutputKind::StepCommitted: {
        step_log_.back().committed = true;
        step_log_.back().finished = clock_->now();
        if (tracing(obs::EventKind::StepCommitted)) {
          obs::Event e;
          e.kind = obs::EventKind::StepCommitted;
          e.coords = coords_of(out.ref);
          e.name = out.name;
          if (out.flag) e.detail = "stalled";
          e.value = static_cast<double>(step_log_.back().finished - step_log_.back().started);
          e.has_value = true;
          trace_event(std::move(e));
        }
        if (metrics_ != nullptr) {
          metrics_->counter("sa_steps_total", {{"fate", "committed"}}, "Adaptation steps by fate")
              .inc();
          if (!out.flag) {
            metrics_
                ->histogram("sa_step_duration_us", obs::default_time_buckets_us(), {},
                            "Wall time from reset sent to step committed")
                .observe(
                    static_cast<double>(step_log_.back().finished - step_log_.back().started));
          }
        }
        if (!out.flag) {
          SA_INFO("manager") << "step " << out.ref.step_index << " committed; now at "
                             << out.config.describe(table_->registry());
        }
        break;
      }
      case OutputKind::StepRolledBack:
        step_log_.back().rolled_back = true;
        step_log_.back().finished = clock_->now();
        if (tracing(obs::EventKind::StepRolledBack)) {
          obs::Event e;
          e.kind = obs::EventKind::StepRolledBack;
          e.coords = coords_of(out.ref);
          e.name = out.name;
          e.value = static_cast<double>(step_log_.back().finished - step_log_.back().started);
          e.has_value = true;
          trace_event(std::move(e));
        }
        if (metrics_ != nullptr) {
          metrics_->counter("sa_steps_total", {{"fate", "rolled_back"}}, "Adaptation steps by fate")
              .inc();
        }
        break;
      case OutputKind::Outcome:
        apply_outcome(out);
        break;
      case OutputKind::AdaptationRequested:
        if (tracing(obs::EventKind::AdaptationRequested)) {
          obs::Event e;
          e.kind = obs::EventKind::AdaptationRequested;
          e.coords.request = out.request_id;
          e.name = out.name;
          e.detail = out.detail;
          e.span = span_of(node_, SpanKind::Request, out.request_id);
          e.parent_span = out.parent_span;
          trace_event(std::move(e));
        }
        break;
      case OutputKind::PlanComputed:
        if (tracing(obs::EventKind::PlanComputed)) {
          obs::Event e;
          e.kind = obs::EventKind::PlanComputed;
          e.coords = coords_of(out.ref);
          e.name = out.name;
          e.detail = out.detail;
          e.value = out.value;
          e.has_value = true;
          trace_event(std::move(e));
        }
        if (metrics_ != nullptr) {
          metrics_
              ->histogram("sa_plan_length", {1, 2, 3, 4, 5, 6, 8, 10, 15, 20}, {},
                          "Steps per computed adaptation path")
              .observe(out.extra);
          metrics_
              ->histogram("sa_plan_cost", {1, 2, 5, 10, 20, 50, 100, 200, 500}, {},
                          "Total action cost per computed adaptation path")
              .observe(out.value);
        }
        SA_INFO("manager") << (out.ref.plan == 0 ? "MAP: " : "replanned path: ") << out.detail
                           << " (cost " << out.value << ")";
        break;
      case OutputKind::Retransmission:
        if (metrics_ != nullptr) {
          metrics_
              ->counter("sa_retransmissions_total", {{"phase", out.label}},
                        "Retransmission rounds by protocol phase")
              .inc();
        }
        break;
      case OutputKind::ResetAcked:
        if (metrics_ != nullptr && !step_log_.empty()) {
          // Reset latency: reset sent (step start) -> reset done received.
          metrics_
              ->histogram("sa_reset_latency_us", obs::default_time_buckets_us(),
                          {{"process", std::to_string(out.process)}},
                          "Reset round-trip latency per process")
              .observe(static_cast<double>(clock_->now() - step_log_.back().started));
        }
        break;
      case OutputKind::BlockedObserved:
        observe_blocked(out.process, out.blocked);
        if (tracing(obs::EventKind::BlockedWindow)) {
          // The blocked window belongs to the agent's track; its parent is
          // the owning adaptation request's span, so critical-path analysis
          // can attribute per-process disruption to the tree node above it.
          obs::Event e;
          e.kind = obs::EventKind::BlockedWindow;
          e.track = static_cast<std::int64_t>(out.process);
          e.coords = coords_of(out.ref);
          e.span = span_of(node_, SpanKind::Request, out.request_id);
          e.value = static_cast<double>(out.blocked);
          e.has_value = true;
          trace_event(std::move(e));
        }
        break;
      default:
        break;  // agent-only kinds never appear in manager output
    }
  }
}

void AdaptationManager::apply_arm_timer(const Output& out) {
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
  // bails instead of clobbering a re-armed timer or firing in the wrong
  // phase. On the simulator cancel() always wins, so the guard never trips.
  const char* label = out.label;
  if (out.timer == ManagerTimer::Protocol) {
    const std::uint64_t gen = ++timer_gen_;
    timer_ = clock_->schedule_after(out.delay, [this, gen, label] {
      std::lock_guard lock(mutex_);
      if (gen != timer_gen_) return;  // superseded or disarmed after dequeue
      timer_ = 0;
      if (tracing(obs::EventKind::TimerFired)) {
        obs::Event e;
        e.kind = obs::EventKind::TimerFired;
        e.coords = coords_of(core_.current_ref());
        e.name = label;
        trace_event(std::move(e));
      }
      dispatch(ManagerInput::TimerFired{ManagerTimer::Protocol});
    });
  } else {
    const std::uint64_t gen = ++stage_delay_gen_;
    stage_delay_event_ = clock_->schedule_after(out.delay, [this, gen, label] {
      std::lock_guard lock(mutex_);
      if (gen != stage_delay_gen_) return;  // disarmed after dequeue
      stage_delay_event_ = 0;
      if (tracing(obs::EventKind::TimerFired)) {
        obs::Event e;
        e.kind = obs::EventKind::TimerFired;
        e.coords = coords_of(core_.current_ref());
        e.name = label;
        trace_event(std::move(e));
      }
      dispatch(ManagerInput::TimerFired{ManagerTimer::StageDelay});
    });
  }
}

void AdaptationManager::apply_disarm_timer(const Output& out) {
  runtime::TimerId& id = out.timer == ManagerTimer::Protocol ? timer_ : stage_delay_event_;
  if (id != 0) {
    clock_->cancel(id);
    id = 0;
    if (tracing(obs::EventKind::TimerCancelled)) {
      obs::Event e;
      e.kind = obs::EventKind::TimerCancelled;
      e.coords = coords_of(out.ref);
      e.name = out.label;
      trace_event(std::move(e));
    }
  }
  // Invalidate a fire that cancel() was too late to stop.
  if (out.timer == ManagerTimer::Protocol) {
    ++timer_gen_;
  } else {
    ++stage_delay_gen_;
  }
}

void AdaptationManager::apply_outcome(const Output& out) {
  const AdaptationResult& result = out.result;
  if (tracing(obs::EventKind::AdaptationFinished)) {
    obs::Event e;
    e.kind = obs::EventKind::AdaptationFinished;
    e.coords.request = out.request_id;
    e.name = out.name;
    e.detail = result.detail;
    e.span = span_of(node_, SpanKind::Request, out.request_id);
    e.parent_span = out.parent_span;
    e.value = static_cast<double>(result.finished - result.started);
    e.has_value = true;
    trace_event(std::move(e));
  }
  if (metrics_ != nullptr) {
    metrics_
        ->counter("sa_adaptations_total", {{"outcome", std::string(to_string(result.outcome))}},
                  "Completed adaptation requests by outcome")
        .inc();
    metrics_
        ->histogram("sa_adaptation_latency_us", obs::default_time_buckets_us(), {},
                    "End-to-end adaptation latency (request to completion)")
        .observe(static_cast<double>(result.finished - result.started));
  }
  SA_INFO("manager") << "request " << out.request_id << " finished: "
                     << to_string(result.outcome) << " (" << result.detail << ")";
  if (handler_) {
    auto handler = std::move(handler_);
    handler_ = nullptr;
    handler(result);
  }
  if (!pending_requests_.empty() && !core_.busy()) {
    // Start the next queued request from a fresh task so the caller's
    // completion handler never observes a half-started successor.
    executor_->post([this] {
      std::lock_guard lock(mutex_);
      if (core_.busy() || pending_requests_.empty()) return;
      PendingRequest next = std::move(pending_requests_.front());
      pending_requests_.pop_front();
      request_adaptation(std::move(next.target), std::move(next.handler), next.cause_span);
    });
  }
}

}  // namespace sa::proto
