// Runtime driver for the centralized adaptation manager (paper §4, Figure 2).
//
// All protocol logic — MAP planning, staged reset fan-out, the timeout /
// retransmission machinery, the §4.4 failure-strategy chain — lives in the
// sans-I/O ManagerCore (proto/core/manager_core.hpp). This class is the thin
// I/O shell around it: it owns the derived analysis data (safe configuration
// set, SAG, planner), translates transport deliveries and timer fires into
// core Inputs, and executes the core's Outputs in order against the real
// Clock / Transport / observability layer, through the effects shared with
// the agent and coordinator drivers (proto/effects.hpp). Works identically
// over SimRuntime and ThreadedRuntime; on the threaded backend every entry
// point locks.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "actions/planner.hpp"
#include "config/enumerate.hpp"
#include "proto/core/manager_core.hpp"
#include "proto/effects.hpp"
#include "proto/messages.hpp"
#include "runtime/runtime.hpp"

namespace sa::proto {

/// Per-step record for experiment harnesses.
struct StepRecord {
  StepRef ref;
  std::string action_name;
  bool committed = false;
  bool rolled_back = false;
  runtime::Time started = 0;
  runtime::Time finished = 0;
};

class AdaptationManager {
 public:
  using CompletionHandler = std::function<void(const AdaptationResult&)>;

  /// The manager draws timers from `rt.clock()`, defers queued-request
  /// startup through `rt.executor()`, and talks to agents over
  /// `rt.transport()`. Works identically over SimRuntime and ThreadedRuntime.
  AdaptationManager(runtime::Runtime& rt, runtime::NodeId node,
                    const config::InvariantSet& invariants, const actions::ActionTable& table,
                    ManagerConfig config = {});
  ~AdaptationManager();

  /// Wires the observability layer in: adaptation/step spans, Fig. 2 phase
  /// transitions, and protocol-timer events flow into `recorder` (when it is
  /// enabled) on `track`; latency/blocking histograms and outcome counters
  /// into `metrics`. Null pointers detach. Normally called by the system
  /// facade.
  void set_observability(obs::TraceRecorder* recorder, obs::MetricsRegistry* metrics,
                         std::int64_t track = obs::kManagerTrack);

  /// Registers the agent responsible for `process`. `stage` orders resets
  /// within a step: lower stages (upstream/senders) quiesce first; agents in
  /// stages above the step's minimum involved stage drain their input before
  /// blocking (global safe condition).
  void register_agent(config::ProcessId process, runtime::NodeId agent_node, int stage = 0);

  /// Current system configuration; must be set before the first request and
  /// is updated as steps commit.
  void set_current_configuration(config::Configuration config) {
    std::lock_guard lock(mutex_);
    core_.set_current_configuration(config);
  }
  config::Configuration current_configuration() const {
    std::lock_guard lock(mutex_);
    return core_.current_configuration();
  }

  /// Requests adaptation to `target`. One request at a time; throws
  /// std::logic_error if one is already in flight. The handler fires (from
  /// simulator context) when the request terminates. `cause_span` optionally
  /// links the request into a causal trace (e.g. its coordinator epoch span).
  void request_adaptation(config::Configuration target, CompletionHandler handler,
                          std::uint64_t cause_span = 0);

  /// Like request_adaptation, but a request arriving while another is in
  /// flight waits its turn instead of throwing. Queued requests run in FIFO
  /// order, each planned from the configuration the previous one left behind.
  void enqueue_adaptation(config::Configuration target, CompletionHandler handler,
                          std::uint64_t cause_span = 0);

  std::size_t queued_requests() const {
    std::lock_guard lock(mutex_);
    return pending_requests_.size();
  }

  ManagerPhase phase() const {
    std::lock_guard lock(mutex_);
    return core_.phase();
  }
  bool busy() const { return phase() != ManagerPhase::Running; }

  /// Safe configurations / SAG derived from I and T (exposed for tests and
  /// the experiment harnesses).
  const std::vector<config::Configuration>& safe_configurations() const { return safe_configs_; }
  const actions::SafeAdaptationGraph& sag() const { return *sag_; }
  const actions::PathPlanner& planner() const { return *planner_; }

  /// Test-only: injects a deliberate protocol bug into the core (see
  /// proto::ManagerFault). The fault-injection campaign's must-fail gate
  /// mutates a live manager this way to prove its oracles catch a broken
  /// driver stack, mirroring the model checker's mutation check.
  void inject_fault(ManagerFault fault) {
    std::lock_guard lock(mutex_);
    core_.inject_fault(fault);
  }

  /// Copies taken under the entity lock: runtime threads append/mutate these
  /// mid-adaptation, so references would race when polled during a threaded
  /// run (e.g. inside a wait_until predicate).
  std::vector<StepRecord> step_log() const {
    std::lock_guard lock(mutex_);
    return step_log_;
  }
  runtime::Time total_blocked_reported() const {
    std::lock_guard lock(mutex_);
    return total_blocked_reported_;
  }

 private:
  struct AgentEndpoint {
    runtime::NodeId node = 0;
    int stage = 0;
  };

  void on_message(runtime::NodeId from, runtime::MessagePtr message);
  /// Feeds one input to the core and executes its outputs at the current
  /// time. Call under mutex_.
  void dispatch(decltype(ManagerInput::event) event);
  /// Executes the outputs of a step dispatched at `now`.
  void apply(const std::vector<Output>& outputs, runtime::Time now);
  /// Stamps the core's verdict with the request's start and `now`, the time
  /// of the step that finished it, then reports it.
  void apply_outcome(const Output& out, runtime::Time now);
  TimerSlot& timer(const Output& out) {
    return out.timer == ManagerTimer::Protocol ? protocol_timer_ : stage_timer_;
  }

  std::optional<config::ProcessId> process_of_node(runtime::NodeId node) const;

  /// Accrues a process's reported blocked time into the total and the
  /// per-process sa_blocked_time_us histogram.
  void observe_blocked(config::ProcessId process, runtime::Time blocked);

  runtime::Clock* clock_;
  runtime::Executor* executor_;
  runtime::Transport* transport_;
  runtime::NodeId node_;
  const actions::ActionTable* table_;

  std::vector<config::Configuration> safe_configs_;
  std::unique_ptr<actions::SafeAdaptationGraph> sag_;
  std::unique_ptr<actions::PathPlanner> planner_;

  ManagerCore core_;
  std::map<config::ProcessId, AgentEndpoint> agents_;
  CompletionHandler handler_;

  TraceHandle trace_;  ///< a no-op until set_observability is called
  TimerSlot protocol_timer_;
  TimerSlot stage_timer_;

  std::vector<StepRecord> step_log_;
  runtime::Time total_blocked_reported_ = 0;
  runtime::Time request_started_ = 0;  ///< dispatch time of the open request

  struct PendingRequest {
    config::Configuration target;
    CompletionHandler handler;
    std::uint64_t cause_span = 0;
  };
  std::deque<PendingRequest> pending_requests_;

  /// Serializes message handlers, timer callbacks, and request submission.
  /// Recursive: an Outcome output invokes the completion handler under the
  /// lock, and that handler commonly enqueues the next request.
  mutable std::recursive_mutex mutex_;
};

}  // namespace sa::proto
