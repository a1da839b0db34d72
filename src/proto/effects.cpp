#include "proto/effects.hpp"

#include <string>
#include <utility>

#include "obs/trace_recorder.hpp"

namespace sa::proto {

obs::StepCoords coords_of(const StepRef& ref) {
  return obs::StepCoords{ref.request_id, ref.plan, ref.step_index, ref.attempt};
}

obs::Event transition_event(obs::EventKind kind, const Output& out,
                            runtime::NodeId manager_node) {
  obs::Event e;
  e.kind = kind;
  switch (kind) {
    case obs::EventKind::ManagerPhase:
      e.name = std::string(to_string(out.phase_to));
      e.detail = std::string(to_string(out.phase_from));
      e.coords.request = out.request_id;
      break;
    case obs::EventKind::AgentState:
      e.name = std::string(to_string(out.state_to));
      e.detail = std::string(to_string(out.state_from));
      e.coords = coords_of(out.ref);
      if (out.ref.request_id != 0) {
        e.parent_span = span_of(manager_node, SpanKind::Request, out.ref.request_id);
      }
      break;
    default:  // CoordinatorPhase
      e.name = std::string(to_string(out.cphase_to));
      e.detail = std::string(to_string(out.cphase_from));
      break;
  }
  return e;
}

void TraceHandle::attach(obs::TraceRecorder* recorder, obs::MetricsRegistry* metrics,
                         std::int64_t track) {
  recorder_ = recorder;
  metrics_ = metrics;
  track_ = track;
}

bool TraceHandle::wants(obs::EventKind kind) const {
  return recorder_ != nullptr && recorder_->wants(kind);
}

void TraceHandle::record(obs::Event event) const {
  event.time = clock_->now();
  if (event.track == obs::kNoTrack) event.track = track_;
  recorder_->record(std::move(event));
}

TimerSlot::TimerSlot(runtime::Clock& clock, const TraceHandle& trace, std::recursive_mutex& mutex,
                     std::function<void()> fire, std::function<obs::StepCoords()> fire_coords)
    : clock_(&clock),
      trace_(&trace),
      mutex_(&mutex),
      fire_(std::move(fire)),
      fire_coords_(std::move(fire_coords)) {}

void TimerSlot::arm(const Output& out) {
  if (trace_->wants(obs::EventKind::TimerArmed)) {
    obs::Event e;
    e.kind = obs::EventKind::TimerArmed;
    e.coords = coords_of(out.ref);
    e.name = out.label;
    e.value = static_cast<double>(out.delay);
    e.has_value = true;
    trace_->record(std::move(e));
  }
  const std::uint64_t gen = ++gen_;
  const char* label = out.label;
  id_ = clock_->schedule_after(out.delay, [this, gen, label] { on_fire(gen, label); });
}

void TimerSlot::disarm(const Output& out) {
  if (id_ != 0) {
    clock_->cancel(id_);
    id_ = 0;
    if (trace_->wants(obs::EventKind::TimerCancelled)) {
      obs::Event e;
      e.kind = obs::EventKind::TimerCancelled;
      e.coords = coords_of(out.ref);
      e.name = out.label;
      trace_->record(std::move(e));
    }
  }
  ++gen_;  // drops a fire that cancel() was too late to stop
}

void TimerSlot::on_fire(std::uint64_t gen, const char* label) {
  std::lock_guard lock(*mutex_);
  if (gen != gen_) return;  // disarmed or re-armed after the timer was dequeued
  id_ = 0;
  if (trace_->wants(obs::EventKind::TimerFired)) {
    obs::Event e;
    e.kind = obs::EventKind::TimerFired;
    if (fire_coords_) e.coords = fire_coords_();
    e.name = label;
    trace_->record(std::move(e));
  }
  fire_();
}

}  // namespace sa::proto
