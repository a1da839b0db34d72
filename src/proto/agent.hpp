// Runtime driver for the per-process adaptation agent (paper §4, Figure 1).
//
// The complete Fig. 1 automaton lives in the sans-I/O AgentCore
// (proto/core/agent_core.hpp):
//
//   running --reset--> resetting --[reset complete]/reset done--> safe(blocked)
//   safe --[in-action complete]/adapt done--> adapted(blocked)
//   adapted --resume--> resuming --[resumption complete]/resume done--> running
//   resetting/safe/adapted --rollback--> running
//
// This class is the thin I/O shell: it feeds transport deliveries and timer
// fires into the core, executes the core's Outputs (sends; the pending-action
// timer and trace events through proto/effects.hpp, shared with the manager
// and coordinator drivers) and performs the requested AdaptableProcess
// operations, reporting their completions back as local events. The agent remains message-driven
// and idempotent: retransmitted manager messages re-elicit the
// acknowledgement appropriate to the agent's progress, which is how
// loss-of-message failures are survived.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "proto/adaptable_process.hpp"
#include "proto/core/agent_core.hpp"
#include "proto/effects.hpp"
#include "proto/messages.hpp"
#include "runtime/runtime.hpp"

namespace sa::proto {

class AdaptationAgent {
 public:
  /// Attaches to `node` (whose receive handler it takes over) and drives
  /// `process` on behalf of the manager at `manager_node`. Timers come from
  /// `clock`, messages travel over `transport`; on the threaded backend both
  /// may call back concurrently, so every entry point locks `mutex_`.
  AdaptationAgent(runtime::Clock& clock, runtime::Transport& transport, runtime::NodeId node,
                  runtime::NodeId manager_node, AdaptableProcess& process,
                  AgentConfig config = {});
  /// Detaches the receive handler before members die; on the threaded
  /// backend this blocks until any in-flight delivery to this node returns,
  /// so a late retransmission cannot land in a half-destroyed agent.
  ~AdaptationAgent();

  /// Copies taken under the entity lock: runtime threads mutate this state,
  /// so polling during a threaded run must not read it unlocked.
  AgentState state() const {
    std::lock_guard lock(mutex_);
    return core_.state();
  }
  AgentStats stats() const {
    std::lock_guard lock(mutex_);
    return core_.stats();
  }
  runtime::NodeId node() const { return node_; }

  void set_fail_to_reset(bool fail) {
    std::lock_guard lock(mutex_);
    core_.set_fail_to_reset(fail);
  }

  /// §4.4 crash-recovery journal support (distributed backend): the step the
  /// agent last resumed to completion, and the restore used by a re-exec'd
  /// agent to seed its idempotent re-ack bookkeeping from disk.
  std::optional<StepRef> last_completed() const {
    std::lock_guard lock(mutex_);
    return core_.last_completed();
  }
  void restore_recovery(std::optional<StepRef> last_completed, runtime::Time total_blocked) {
    std::lock_guard lock(mutex_);
    core_.restore_recovery(std::move(last_completed), total_blocked);
  }

  /// Wires the observability layer in: Fig. 1 state transitions and the
  /// agent's pre/in/resume action timers flow into `recorder` (when enabled),
  /// duplicate-message counters into `metrics`. `track` identifies this
  /// agent's span track (normally the process id). Null pointers detach.
  void set_observability(obs::TraceRecorder* recorder, obs::MetricsRegistry* metrics,
                         std::int64_t track);

 private:
  void on_message(runtime::NodeId from, runtime::MessagePtr message);
  /// Feeds one input, stamped with the current time, to the core and executes
  /// its outputs. Call under mutex_.
  void dispatch(decltype(AgentInput::event) event);
  void apply(const std::vector<Output>& outputs);

  runtime::Clock* clock_;
  runtime::Transport* transport_;
  runtime::NodeId node_;
  runtime::NodeId manager_;
  AdaptableProcess* process_;

  AgentCore core_;
  TraceHandle trace_;  ///< a no-op until set_observability is called
  TimerSlot pending_;  ///< the core's single pending-action slot

  /// Serializes message handlers, timer callbacks, and process callbacks.
  /// Recursive: a callback may synchronously re-enter (e.g. reach_safe_state
  /// completing inline while the reset handler still holds the lock).
  mutable std::recursive_mutex mutex_;
};

}  // namespace sa::proto
