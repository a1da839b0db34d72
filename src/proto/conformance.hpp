// The protocol-safety monitor: the one definition of the paper's message-level
// safety rules, shared by the model checker, the fault campaign and the tests.
//
// Per step attempt, keyed by (manager node, request, plan, step, attempt): an
// agent reports progress only on a step it was reset for (Fig. 1/2); a step's
// first resume, whoever it goes to, waits for the adapt done (or subsuming
// resume done) of every agent reset for the step (§4.3 global safe state);
// rollback and resume of one step exclude each other (§4.4); a rollback done
// follows a rollback, unless the agent never saw the step (the no-op ack).
// Per directed coordinator link: commit epochs never regress, an epoch is never
// re-committed with different targets (an identical re-send is loss handling),
// and an epoch done answers a commit on the reverse link.
//
// Every step rule fires on a manager-local event — a message the manager sends
// or receives — so a verdict depends only on the manager's own history, never
// on how deliveries at different agents interleave, and the model checker's
// sleep-set and symmetry reductions stay sound for it. check::Model calls
// on_send() and on_receive() live; check_trace() replays a recorded trace, each
// delivered manager -> agent message standing in for its send. A violation is
// reported once per (manager, step, agent, rule) or (link, epoch, rule),
// however often retransmission repeats it. The monitor is a copyable value
// inside the model checker's forked Model.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "config/configuration.hpp"
#include "config/registry.hpp"
#include "proto/messages.hpp"
#include "runtime/transport.hpp"
#include "util/small_vector.hpp"

namespace sa::proto {

struct SafetyViolation {
  runtime::Time time = 0;
  std::string description;
};

class SafetyMonitor {
 public:
  /// `manager` sent `message` to `agent`.
  void on_send(runtime::Time time, runtime::NodeId manager, runtime::NodeId agent,
               const runtime::Message& message, std::vector<SafetyViolation>& out);
  /// `manager` received `message` from `agent`.
  void on_receive(runtime::Time time, runtime::NodeId manager, runtime::NodeId agent,
                  const runtime::Message& message, std::vector<SafetyViolation>& out);
  /// Coordinator `from` sent `message` to coordinator `to`.
  void on_link(runtime::Time time, runtime::NodeId from, runtime::NodeId to,
               const CoordMessage& message, std::vector<SafetyViolation>& out);

 private:
  enum Mark : std::uint8_t {
    kReset = 1,
    kAdaptDone = 2,  ///< adapt done, or the resume done that subsumes it
    kResume = 4,
    kRollback = 8,
    kProgressReported = 16,
    kRollbackDoneReported = 32,
    kEarlyResumeReported = 64,
  };
  struct StepRecord {
    runtime::NodeId manager = 0;
    bool resumed = false;      ///< a resume went out to some agent
    bool rolled_back = false;  ///< a rollback went out to some agent
    StepRef ref;
  };
  /// What one step attempt has seen of one agent. Kept flat beside the steps
  /// so both containers hold trivially copyable elements: a Model fork
  /// copies them as plain bytes.
  struct AgentMarks {
    std::uint32_t step = 0;  ///< index into steps_
    runtime::NodeId agent = 0;
    std::uint8_t marks = 0;
  };
  /// A committed epoch on link from -> to, or (on a done link) a phantom
  /// epoch done already reported.
  struct EpochRecord {
    runtime::NodeId from = 0;
    runtime::NodeId to = 0;
    std::uint64_t epoch = 0;
    std::vector<ShardTarget> targets;
    bool reported = false;
  };

  /// The step's record and the agent's marks in it, created on first use.
  std::pair<StepRecord*, AgentMarks*> marks_for(runtime::NodeId manager, const StepRef& ref,
                                                runtime::NodeId agent);

  // Inline room for the paper scenario's five steps of up to three agents
  // each, and some retries: copying the monitor rarely allocates.
  util::SmallVector<StepRecord, 8> steps_;   ///< newest last
  util::SmallVector<AgentMarks, 16> marks_;  ///< newest last
  std::vector<EpochRecord> epochs_;          ///< empty outside manager trees
};

/// Replays the delivered entries of `trace` through one monitor: entries from
/// a node in `managers` are its sends, entries to one its receives, and
/// coordinator messages feed the link rules; other traffic is ignored.
std::vector<SafetyViolation> check_trace(const std::vector<runtime::TraceEntry>& trace,
                                         const std::vector<runtime::NodeId>& managers);

/// The §4.4 terminal-outcome rule, where the run rests: a Success at the
/// target, RolledBackToSource and NoPathFound at the source, the parking
/// outcomes anywhere safe (the callers' invariant checks cover those).
/// `outcome` is the outcome's proto::to_string name. One description per breach.
std::vector<std::string> outcome_violations(std::string_view outcome,
                                            const config::Configuration& final_config,
                                            const config::Configuration& source,
                                            const config::Configuration& target,
                                            const config::ComponentRegistry& registry);

/// Its other half, which holds once the run has quiesced: a Success leaves
/// every agent back in `running`; `not_running` labels the others.
std::vector<std::string> outcome_agent_violations(std::string_view outcome,
                                                  const std::vector<std::string>& not_running);

}  // namespace sa::proto
