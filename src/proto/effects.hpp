// The Output effects that AdaptationManager, AdaptationAgent and
// AdaptationCoordinator execute the same way, written once.
//
//   * TraceHandle: a driver's recorder, metrics registry, default track and
//     clock. wants(kind) gates building an event; record() stamps the clock
//     time and the default track.
//   * TimerSlot: one core timer slot (ArmTimer / DisarmTimer) backed by a
//     runtime::Clock timer, with its TimerArmed / TimerFired /
//     TimerCancelled events.
//   * transition_event: the event for a core's Transition output. The model
//     checker records the same events, so a verdict on the model speaks the
//     runtime's vocabulary.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>

#include "obs/event.hpp"
#include "proto/core/io.hpp"
#include "runtime/clock.hpp"

namespace sa::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace sa::obs

namespace sa::proto {

obs::StepCoords coords_of(const StepRef& ref);

/// The Transition event for `out`, a Transition output of the core whose
/// event kind is `kind` (ManagerPhase, AgentState or CoordinatorPhase):
/// detail = from, name = to. A manager transition carries its request; an
/// agent transition its step and, inside a request, the request span derived
/// from `manager_node` (both ends derive it, so agent transitions join the
/// manager's causal tree without widening the wire messages).
obs::Event transition_event(obs::EventKind kind, const Output& out,
                            runtime::NodeId manager_node = 0);

/// A driver's observability wiring; a no-op until attach() is called.
class TraceHandle {
 public:
  explicit TraceHandle(runtime::Clock& clock) : clock_(&clock) {}

  /// Null pointers detach. `track` is stamped on events that name none.
  void attach(obs::TraceRecorder* recorder, obs::MetricsRegistry* metrics, std::int64_t track);

  /// True iff a recorder is attached and records `kind` (enabled, and the
  /// kind passes its detail filter). Check it before building an event.
  bool wants(obs::EventKind kind) const;
  /// Stamps the current time and, on an event without a track, the default
  /// track; then records. Call only after wants() returned true.
  void record(obs::Event event) const;
  obs::TraceRecorder* recorder() const { return recorder_; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

 private:
  runtime::Clock* clock_;
  obs::TraceRecorder* recorder_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::int64_t track_ = obs::kNoTrack;
};

/// One logical timer slot of a core, backed by a real timer.
///
/// Every arm and disarm bumps the slot's generation, and a fire acts only if
/// the generation it was armed with is still current. On the threaded
/// backend the timer thread may already have dequeued a callback when the
/// driver disarms or re-arms its slot: cancel() then returns false and the
/// callback still runs, but it sees a newer generation and drops out instead
/// of firing in the wrong phase or for a step it no longer belongs to. On
/// the simulator cancel() always wins, so the guard never trips.
///
/// The owner calls arm() and disarm() under `mutex`; a fire takes it itself.
/// Not copyable: pending callbacks point at the slot.
class TimerSlot {
 public:
  /// `fire` feeds the fire to the owner's core. `fire_coords`, if set,
  /// stamps TimerFired with the owner's step at fire time.
  TimerSlot(runtime::Clock& clock, const TraceHandle& trace, std::recursive_mutex& mutex,
            std::function<void()> fire, std::function<obs::StepCoords()> fire_coords = nullptr);
  TimerSlot(const TimerSlot&) = delete;
  TimerSlot& operator=(const TimerSlot&) = delete;

  /// Executes an ArmTimer output: `out.label` fires after `out.delay`.
  void arm(const Output& out);
  /// Executes a DisarmTimer output.
  void disarm(const Output& out);

 private:
  void on_fire(std::uint64_t gen, const char* label);

  runtime::Clock* clock_;
  const TraceHandle* trace_;
  std::recursive_mutex* mutex_;
  std::function<void()> fire_;
  std::function<obs::StepCoords()> fire_coords_;
  runtime::TimerId id_ = 0;  ///< 0 when no real timer is pending
  std::uint64_t gen_ = 0;
};

}  // namespace sa::proto
