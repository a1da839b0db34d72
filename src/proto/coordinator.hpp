// Runtime driver for one coordinator of the hierarchical manager tree.
//
// All epoch/batching/group-commit logic lives in the sans-I/O CoordinatorCore
// (proto/core/coordinator_core.hpp). This class is the thin I/O shell: it
// translates transport deliveries (parent commits, child reports) and timer
// fires into core Inputs and executes the core's Outputs — sends over
// runtime::Transport, the epoch and commit timers as two TimerSlots and
// trace events through a TraceHandle (proto/effects.hpp, shared with the
// manager and agent drivers), and ExecuteShard against the local shard's
// AdaptationManager via the runtime executor, so the coordinator's lock and
// the manager's lock are never held together. Works identically over
// SimRuntime and ThreadedRuntime.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "proto/core/coordinator_core.hpp"
#include "proto/effects.hpp"
#include "proto/manager.hpp"
#include "runtime/runtime.hpp"

namespace sa::proto {

class AdaptationCoordinator {
 public:
  /// One root submission's aggregated fate: per-shard §4.4 results for
  /// exactly the shards the submission asked for.
  struct TicketResult {
    std::uint64_t ticket = 0;
    std::uint64_t epoch = 0;  ///< the epoch the submission was committed in
    std::vector<ShardOutcome> outcomes;
    runtime::Time started = 0;
    runtime::Time finished = 0;
  };
  using TicketHandler = std::function<void(const TicketResult&)>;

  /// Attaches to `node` (whose receive handler it takes over). `depth` is the
  /// distance from the tree root, used to key per-level metrics.
  AdaptationCoordinator(runtime::Runtime& rt, runtime::NodeId node, CoordinatorConfig config,
                       int depth = 0);
  ~AdaptationCoordinator();

  AdaptationCoordinator(const AdaptationCoordinator&) = delete;
  AdaptationCoordinator& operator=(const AdaptationCoordinator&) = delete;

  // --- topology (wired by the composite before any traffic) -----------------
  void set_parent(runtime::NodeId parent_node);
  /// Registers the child coordinator at `child_node`, covering `shards`.
  std::size_t add_child(runtime::NodeId child_node, std::vector<std::uint32_t> shards);
  /// Registers a locally-executed shard; shards with equal `lane` serialize.
  void add_local_shard(std::uint32_t shard, std::uint32_t lane, AdaptationManager& manager);

  /// Root-only entry point: submits one batch of shard targets and returns
  /// its ticket. Submissions landing in the same epoch window group-commit;
  /// the handler fires when every requested shard's fate is known.
  std::uint64_t submit(std::vector<ShardTarget> targets, TicketHandler handler);

  CoordinatorPhase phase() const {
    std::lock_guard lock(mutex_);
    return core_.phase();
  }
  bool idle() const { return phase() == CoordinatorPhase::Idle; }
  std::uint64_t epochs_completed() const {
    std::lock_guard lock(mutex_);
    return core_.epochs_completed();
  }
  int depth() const { return depth_; }
  runtime::NodeId node() const { return node_; }

  /// Test-only: seeds a deliberate protocol bug (see proto::CoordinatorFault)
  /// so the conformance gate can prove it catches a broken coordinator.
  void inject_fault(CoordinatorFault fault) {
    std::lock_guard lock(mutex_);
    core_.inject_fault(fault);
  }

  /// Wires the observability layer in: epoch spans and phase transitions into
  /// `recorder` (when enabled), per-depth epoch/batch/orphan metrics into
  /// `metrics`. `track` identifies this coordinator's span track.
  void set_observability(obs::TraceRecorder* recorder, obs::MetricsRegistry* metrics,
                         std::int64_t track);

 private:
  void on_message(runtime::NodeId from, runtime::MessagePtr message);
  /// Feeds one input, stamped with the current time, to the core and executes
  /// its outputs. Call under mutex_.
  void dispatch(decltype(CoordinatorInput::event) event);
  void apply(const std::vector<Output>& outputs);
  void apply_execute_shard(const Output& out);
  void apply_ticket_done(const Output& out);
  TimerSlot& timer(const Output& out) {
    return out.ctimer == CoordinatorTimer::Epoch ? epoch_timer_ : commit_timer_;
  }

  std::string depth_label() const;

  runtime::Clock* clock_;
  runtime::Executor* executor_;
  runtime::Transport* transport_;
  runtime::NodeId node_;
  const int depth_;

  CoordinatorCore core_;

  runtime::NodeId parent_node_ = 0;
  bool has_parent_ = false;
  std::vector<runtime::NodeId> child_nodes_;          ///< child index -> node
  std::map<runtime::NodeId, std::size_t> child_of_;   ///< node -> child index
  std::map<std::uint32_t, AdaptationManager*> shard_manager_;

  TraceHandle trace_;  ///< a no-op until set_observability is called
  TimerSlot epoch_timer_;
  TimerSlot commit_timer_;

  std::uint64_t next_ticket_ = 1;
  struct PendingTicket {
    TicketHandler handler;
    runtime::Time started = 0;
  };
  std::map<std::uint64_t, PendingTicket> pending_tickets_;

  runtime::Time epoch_sealed_at_ = 0;  ///< for the per-level commit latency

  /// Recursive: a TicketDone output fires the completion handler under the
  /// lock, and that handler commonly submits the next batch.
  mutable std::recursive_mutex mutex_;
};

}  // namespace sa::proto
