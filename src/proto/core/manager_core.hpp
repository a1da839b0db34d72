// Sans-I/O core of the centralized adaptation manager (paper §4, Figure 2).
//
// Pure, deterministic, copyable value state: the complete Fig. 2 automaton —
// MAP planning, staged reset fan-out, the reset/resume/rollback timeout and
// retransmission machinery, the §4.4 failure-strategy chain — with every side
// effect expressed as an Output instead of performed. The runtime driver
// (proto/manager.hpp) executes Outputs against a real Clock/Transport; the
// bounded interleaving explorer (src/check) executes the same Outputs against
// a virtual network and model-checks the safety argument over all schedules.
//
// Determinism contract: step() depends only on the core's value state and the
// Input. The core reads no time at all: it never sees a clock or a timestamp,
// so the request's start and finish times in an Outcome are left for the
// driver to stamp, and two cores that took the same inputs at different
// times are equal values. The core never sends, never locks, and never
// records observability events.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "actions/planner.hpp"
#include "config/enumerate.hpp"
#include "proto/core/io.hpp"
#include "proto/core/states.hpp"
#include "proto/messages.hpp"
#include "util/bitset64.hpp"
#include "util/small_vector.hpp"

namespace sa::proto {

struct ManagerConfig {
  runtime::Time reset_timeout = runtime::ms(150);     ///< reset sent -> all adapt done
  runtime::Time resume_timeout = runtime::ms(100);    ///< resume sent -> all resume done
  runtime::Time rollback_timeout = runtime::ms(100);  ///< rollback sent -> all rollback done
  /// Extra wait between quiescing one stage and resetting the next, covering
  /// data still in flight toward downstream processes (the global safe
  /// condition for sender->receiver actions).
  runtime::Time inter_stage_delay = runtime::ms(15);
  int message_retries = 2;          ///< retransmission rounds per phase
  int run_to_completion_retries = 8;///< extra resume rounds after first resume
  int step_retries = 1;             ///< §4.4: "retries the same step once more"
  std::size_t max_alternative_paths = 3;
  bool allow_return_to_source = true;

  bool operator==(const ManagerConfig&) const = default;
};

/// Test-only protocol mutations. The explorer's mutation check enables one of
/// these to prove a broken core is caught with a replayable counterexample;
/// production drivers never set them.
enum class ManagerFault : std::uint8_t {
  None,
  /// Send `resume` as soon as all but one adapt done arrived — a direct
  /// violation of the global-safe-state rule (§4.3).
  ResumeBeforeLastAdaptDone,
  /// Issue a rollback even after a resume was sent for the step, violating
  /// the §4.4 run-to-completion rule.
  RollbackAfterResume,
};

/// A protocol-timer label and its fingerprint hash, both fixed at compile
/// time, so arming the timer hashes nothing.
struct TimerLabel {
  const char* text;
  std::uint64_t hash;

  bool operator==(const TimerLabel&) const = default;
};

class ManagerCore {
 public:
  /// `invariants`, `table`, and `planner` are shared immutable analysis data
  /// and must outlive the core; everything else is owned value state, so
  /// copies of a core evolve independently, and two cores compare equal
  /// exactly when every field does (the model checker interns cores by that
  /// equality, check/manager_table.hpp).
  ManagerCore(const config::InvariantSet& invariants, const actions::ActionTable& table,
              const actions::PathPlanner& planner, ManagerConfig config);

  void register_agent(config::ProcessId process, int stage);

  void set_current_configuration(config::Configuration config) { current_ = config; }
  const config::Configuration& current_configuration() const { return current_; }

  ManagerPhase phase() const { return phase_; }
  bool busy() const { return phase_ != ManagerPhase::Running; }
  StepRef current_ref() const {
    return StepRef{request_id_, plan_number_, static_cast<std::uint32_t>(step_index_),
                   step_attempt_};
  }
  std::uint64_t request_id() const { return request_id_; }
  /// The open or last request's verdict so far: once a step emits an
  /// Outcome, exactly what that Outcome carries (the core stamps no time).
  const AdaptationSummary& summary() const { return result_; }

  /// Consumes one input: clears `out` and fills it with the ordered side
  /// effects the input caused. The caller owns the buffer, so a caller that
  /// reuses it steps without allocating for the output list.
  /// Calling step(AdaptCommand) while busy() is a logic error (the driver
  /// guards and throws; the explorer never does it).
  void step(const ManagerInput& input, std::vector<Output>& out);

  bool operator==(const ManagerCore&) const = default;

  /// The registered agents with their reset stages, in ascending process id.
  const util::SmallVector<std::pair<config::ProcessId, int>, 8>& agents() const {
    return stages_;
  }

  // --- introspection for the explorer and tests -----------------------------
  const util::SmallVector<config::ProcessId, 8>& involved() const { return involved_; }
  const util::IdSet64& adapt_acked() const { return adapt_acked_; }
  const util::IdSet64& resume_acked() const { return resume_acked_; }
  bool resume_sent() const { return resume_sent_; }

  /// Mixes all protocol-relevant state (not timestamps) into `h` — the
  /// explorer's hashed-state deduplication key.
  void fingerprint(std::uint64_t& h) const;

  /// Symmetry-aware split of fingerprint(): fingerprint_shared() mixes every
  /// field NOT keyed by a process id (per-process set memberships contribute
  /// only their cardinalities), and process_fingerprint() packs the
  /// membership bits of one process (involved / drain / reset-acked /
  /// adapt-acked / resume-acked / rollback-acked). The explorer folds the
  /// latter into per-agent orbit sub-fingerprints so states differing only by
  /// a permutation of interchangeable agents canonicalize identically.
  void fingerprint_shared(std::uint64_t& h) const;
  std::uint64_t process_fingerprint(config::ProcessId process) const;

  /// Test-only: injects a deliberate protocol bug (see ManagerFault).
  void inject_fault(ManagerFault fault) { fault_ = fault; }

 private:
  using Outputs = std::vector<Output>;

  // Ported 1:1 from the pre-refactor driver; each method appends Outputs to
  // `out`, the buffer of the step in progress, in exactly the order the old
  // code performed the matching side effects, which is what keeps same-seed
  // simulator traces byte-identical.
  void handle_request(Outputs& out, const config::Configuration& target);
  void handle_message(Outputs& out, config::ProcessId from, const runtime::MessagePtr& message);
  void on_reset_done(Outputs& out, config::ProcessId process);
  void on_adapt_done(Outputs& out, config::ProcessId process);
  void on_resume_done(Outputs& out, config::ProcessId process, const ResumeDoneMsg& msg);
  void on_rollback_done(Outputs& out, config::ProcessId process);
  void start_plan(Outputs& out, const actions::AdaptationPlan& plan);
  void execute_current_step(Outputs& out);
  void send_stage_resets(Outputs& out, int stage);
  void maybe_advance_stage(Outputs& out);
  void enter_resuming(Outputs& out);
  void commit_step(Outputs& out);
  void on_timeout(Outputs& out);
  /// Shared timeout arm for the resuming/rolling-back phases: re-send
  /// `make_message()` to every process not yet in `acked`, re-arm `timeout`.
  template <typename Msg>
  void retransmit_unacked(Outputs& out, const char* phase_label, const util::IdSet64& acked,
                          runtime::Time timeout, const TimerLabel& timer_label);
  /// The fingerprints' shared fields, spread over four hash lanes.
  void mix_request_lanes(std::uint64_t (&lane)[4]) const;
  void mix_timer_lanes(std::uint64_t (&lane)[4]) const;
  void begin_rollback(Outputs& out);
  void step_failed_after_rollback(Outputs& out);
  void try_next_strategy(Outputs& out);
  /// Ends the request. `reason` is data, not text: the drivers format it.
  void finish(Outputs& out, AdaptationOutcome outcome, const OutcomeReason& reason);
  std::size_t adapt_quorum() const;  ///< acks needed before resume (fault hook)

  LocalCommand command_for(config::ProcessId process) const;
  int stage_of(config::ProcessId process) const;  ///< throws if unregistered
  bool has_agent(config::ProcessId process) const;
  void send(Outputs& out, config::ProcessId to, runtime::MessagePtr message);
  void set_phase(Outputs& out, ManagerPhase next);
  void arm_timer(Outputs& out, runtime::Time timeout, const TimerLabel& label);
  void disarm_timer(Outputs& out);
  Output& emit(Outputs& out, OutputKind kind) const;

  const config::InvariantSet* invariants_;
  const actions::ActionTable* table_;
  const actions::PathPlanner* planner_;
  ManagerConfig config_;
  ManagerFault fault_ = ManagerFault::None;

  /// Agent topology, sorted by process id. Inline (not a std::map or a
  /// std::vector) because the explorer copies the core at every fork: a copy
  /// is a memcpy-sized loop with no allocation. Lookups are linear — the
  /// involved set of a step is a handful of processes.
  util::SmallVector<std::pair<config::ProcessId, int>, 8> stages_;
  config::Configuration current_;

  // --- in-flight request state ---
  ManagerPhase phase_ = ManagerPhase::Running;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t request_id_ = 0;
  std::uint64_t cause_span_ = 0;  ///< tracing only; echoed on request outputs
  config::Configuration source_;
  config::Configuration target_;
  AdaptationSummary result_;
  bool returning_to_source_ = false;
  std::size_t alternatives_tried_ = 0;

  /// What the core reads of a plan step: its action and the configuration
  /// it reaches.
  struct PlanStep {
    actions::ActionId action = 0;
    config::Configuration to;

    bool operator==(const PlanStep&) const = default;
  };

  /// Steps of the plan being executed, inline for the same reason as
  /// stages_, and their hash, computed once in start_plan() so fingerprint()
  /// mixes one word instead of walking the steps.
  util::SmallVector<PlanStep, 8> plan_steps_;
  std::uint64_t plan_hash_ = 0;
  std::uint32_t plan_number_ = 0;   ///< disambiguates re-planned paths
  std::uint32_t plan_counter_ = 0;  ///< next plan number within the request
  std::size_t step_index_ = 0;
  std::uint32_t step_attempt_ = 0;

  // per-step bookkeeping (bitmask sets: copied by value at every explorer
  // fork, so a std::set node allocation per member would dominate fork cost)
  util::SmallVector<config::ProcessId, 8> involved_;
  util::IdSet64 drain_set_;  ///< involved processes that drain before blocking
  int min_stage_ = 0;
  int current_stage_ = 0;
  util::IdSet64 reset_acked_;
  util::IdSet64 adapt_acked_;
  util::IdSet64 resume_acked_;
  util::IdSet64 rollback_acked_;
  bool resume_sent_ = false;
  int retries_left_ = 0;

  // logical timer slots (the driver maps these onto real TimerIds)
  bool protocol_timer_armed_ = false;
  TimerLabel protocol_timer_label_{"", 0};  ///< set by arm_timer()
  bool stage_delay_armed_ = false;
  int stage_delay_stage_ = 0;  ///< stage whose resets go out when it fires
};

}  // namespace sa::proto
