#include "proto/manager.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "util/log.hpp"

namespace sa::proto {

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
      core_(invariants, table, *planner_, config),
      trace_(*clock_),
      protocol_timer_(*clock_, trace_, mutex_,
                      [this] { dispatch(ManagerInput::TimerFired{ManagerTimer::Protocol}); },
                      [this] { return coords_of(core_.current_ref()); }),
      stage_timer_(*clock_, trace_, mutex_,
                   [this] { dispatch(ManagerInput::TimerFired{ManagerTimer::StageDelay}); },
                   [this] { return coords_of(core_.current_ref()); }) {
  transport_->set_handler(node_, [this](runtime::NodeId from, runtime::MessagePtr message) {
    on_message(from, std::move(message));
  });
}

// Detach before members die; on the threaded backend this waits out any
// in-flight delivery so a late ack cannot land in a half-destroyed manager.
AdaptationManager::~AdaptationManager() { transport_->set_handler(node_, nullptr); }

void AdaptationManager::set_observability(obs::TraceRecorder* recorder,
                                          obs::MetricsRegistry* metrics, std::int64_t track) {
  std::lock_guard lock(mutex_);
  trace_.attach(recorder, metrics, track);
}

void AdaptationManager::observe_blocked(config::ProcessId process, runtime::Time blocked) {
  total_blocked_reported_ += blocked;
  if (obs::MetricsRegistry* metrics = trace_.metrics()) {
    metrics
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
  const auto* proto = as_proto(message.get());
  if (!proto) {
    SA_WARN("manager") << "non-protocol message " << message->type_name();
    return;
  }
  if (!(proto->step == core_.current_ref())) {
    SA_DEBUG("manager") << "stale " << message->type_name() << " " << proto->step.describe()
                        << " (expected " << core_.current_ref().describe() << ")";
    return;
  }
  dispatch(ManagerInput::MessageDelivered{*process, &message});
}

void AdaptationManager::dispatch(decltype(ManagerInput::event) event) {
  const runtime::Time now = clock_->now();
  std::vector<Output> outputs;
  core_.step(ManagerInput{std::move(event)}, outputs);
  apply(outputs, now);
}

void AdaptationManager::apply(const std::vector<Output>& outputs, runtime::Time now) {
  for (const Output& out : outputs) {
    switch (out.kind) {
      case OutputKind::Send:
        transport_->send(node_, agents_.at(out.process).node, out.message);
        break;
      case OutputKind::ArmTimer:
        timer(out).arm(out);
        break;
      case OutputKind::DisarmTimer:
        timer(out).disarm(out);
        break;
      case OutputKind::Transition:
        if (trace_.wants(obs::EventKind::ManagerPhase)) {
          trace_.record(transition_event(obs::EventKind::ManagerPhase, out));
        }
        break;
      case OutputKind::StepStarted: {
        const std::string operation =
            table_->action(out.action).operation_text(table_->registry());
        StepRecord record;
        record.ref = out.ref;
        record.action_name = out.name;
        record.started = clock_->now();
        step_log_.push_back(record);
        if (trace_.wants(obs::EventKind::StepStarted)) {
          obs::Event e;
          e.kind = obs::EventKind::StepStarted;
          e.coords = coords_of(out.ref);
          e.name = out.name;
          e.detail = operation;
          e.value = out.value;
          e.has_value = true;
          trace_.record(std::move(e));
        }
        SA_INFO("manager") << "step " << out.ref.describe() << ": " << out.name << " ("
                           << operation << "), " << static_cast<std::size_t>(out.value)
                           << " process(es)";
        break;
      }
      case OutputKind::StepCommitted: {
        step_log_.back().committed = true;
        step_log_.back().finished = clock_->now();
        if (trace_.wants(obs::EventKind::StepCommitted)) {
          obs::Event e;
          e.kind = obs::EventKind::StepCommitted;
          e.coords = coords_of(out.ref);
          e.name = out.name;
          if (out.flag) e.detail = "stalled";
          e.value = static_cast<double>(step_log_.back().finished - step_log_.back().started);
          e.has_value = true;
          trace_.record(std::move(e));
        }
        if (obs::MetricsRegistry* metrics = trace_.metrics()) {
          metrics->counter("sa_steps_total", {{"fate", "committed"}}, "Adaptation steps by fate")
              .inc();
          if (!out.flag) {
            metrics
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
        if (trace_.wants(obs::EventKind::StepRolledBack)) {
          obs::Event e;
          e.kind = obs::EventKind::StepRolledBack;
          e.coords = coords_of(out.ref);
          e.name = out.name;
          e.value = static_cast<double>(step_log_.back().finished - step_log_.back().started);
          e.has_value = true;
          trace_.record(std::move(e));
        }
        if (obs::MetricsRegistry* metrics = trace_.metrics()) {
          metrics->counter("sa_steps_total", {{"fate", "rolled_back"}}, "Adaptation steps by fate")
              .inc();
        }
        break;
      case OutputKind::Outcome:
        apply_outcome(out, now);
        break;
      case OutputKind::AdaptationRequested:
        request_started_ = now;
        if (trace_.wants(obs::EventKind::AdaptationRequested)) {
          obs::Event e;
          e.kind = obs::EventKind::AdaptationRequested;
          e.coords.request = out.request_id;
          e.name = out.name;
          e.detail = out.config.describe(table_->registry()) + " -> " +
                     out.payload().target.describe(table_->registry());
          e.span = span_of(node_, SpanKind::Request, out.request_id);
          e.parent_span = out.payload().parent_span;
          trace_.record(std::move(e));
        }
        break;
      case OutputKind::PlanComputed: {
        std::string path;
        for (const actions::ActionId action : out.payload().plan) {
          if (!path.empty()) path += ", ";
          path += table_->action(action).name;
        }
        if (trace_.wants(obs::EventKind::PlanComputed)) {
          obs::Event e;
          e.kind = obs::EventKind::PlanComputed;
          e.coords = coords_of(out.ref);
          e.name = out.name;
          e.detail = path;
          e.value = out.value;
          e.has_value = true;
          trace_.record(std::move(e));
        }
        if (obs::MetricsRegistry* metrics = trace_.metrics()) {
          metrics
              ->histogram("sa_plan_length", {1, 2, 3, 4, 5, 6, 8, 10, 15, 20}, {},
                          "Steps per computed adaptation path")
              .observe(static_cast<double>(out.payload().plan.size()));
          metrics
              ->histogram("sa_plan_cost", {1, 2, 5, 10, 20, 50, 100, 200, 500}, {},
                          "Total action cost per computed adaptation path")
              .observe(out.value);
        }
        SA_INFO("manager") << (out.ref.plan == 0 ? "MAP: " : "replanned path: ") << path
                           << " (cost " << out.value << ")";
        break;
      }
      case OutputKind::Retransmission:
        if (obs::MetricsRegistry* metrics = trace_.metrics()) {
          metrics
              ->counter("sa_retransmissions_total", {{"phase", out.label}},
                        "Retransmission rounds by protocol phase")
              .inc();
        }
        break;
      case OutputKind::ResetAcked:
        if (obs::MetricsRegistry* metrics = trace_.metrics(); metrics && !step_log_.empty()) {
          // Reset latency: reset sent (step start) -> reset done received.
          metrics
              ->histogram("sa_reset_latency_us", obs::default_time_buckets_us(),
                          {{"process", std::to_string(out.process)}},
                          "Reset round-trip latency per process")
              .observe(static_cast<double>(clock_->now() - step_log_.back().started));
        }
        break;
      case OutputKind::BlockedObserved:
        observe_blocked(out.process, out.blocked);
        if (trace_.wants(obs::EventKind::BlockedWindow)) {
          // The blocked window belongs to the agent's track (the process id
          // unless the agent's node has its own); its parent is the owning
          // adaptation request's span, so critical-path analysis can
          // attribute per-process disruption to the tree node above it.
          obs::Event e;
          e.kind = obs::EventKind::BlockedWindow;
          e.track = trace_.recorder()
                        ->node_track(agents_.at(out.process).node)
                        .value_or(static_cast<std::int64_t>(out.process));
          e.coords = coords_of(out.ref);
          e.span = span_of(node_, SpanKind::Request, out.request_id);
          e.value = static_cast<double>(out.blocked);
          e.has_value = true;
          trace_.record(std::move(e));
        }
        break;
      default:
        break;  // agent-only kinds never appear in manager output
    }
  }
}

void AdaptationManager::apply_outcome(const Output& out, runtime::Time now) {
  // The core reports why the request finished as data, and no time; its
  // text and times are made here, where it is recorded, logged and handed
  // to the caller.
  const OutputPayload& outcome = out.payload();
  AdaptationResult result{outcome.result, describe(outcome.reason, table_->registry())};
  result.started = request_started_;
  result.finished = now;
  if (trace_.wants(obs::EventKind::AdaptationFinished)) {
    obs::Event e;
    e.kind = obs::EventKind::AdaptationFinished;
    e.coords.request = out.request_id;
    e.name = out.name;
    e.detail = result.detail;
    e.span = span_of(node_, SpanKind::Request, out.request_id);
    e.parent_span = outcome.parent_span;
    e.value = static_cast<double>(result.finished - result.started);
    e.has_value = true;
    trace_.record(std::move(e));
  }
  if (obs::MetricsRegistry* metrics = trace_.metrics()) {
    metrics
        ->counter("sa_adaptations_total", {{"outcome", std::string(to_string(result.outcome))}},
                  "Completed adaptation requests by outcome")
        .inc();
    metrics
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
