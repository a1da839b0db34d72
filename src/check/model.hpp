// Virtual-world model of one adaptation run: the sans-I/O ManagerCore plus
// one AgentCore per process, wired through an in-memory network and timer set
// instead of a runtime backend.
//
// The Model is a copyable value — the explorer forks it at every branch
// point, copy-assigning into recycled models; a copy into a model that held a
// state of the same scenario before does not allocate, and writes nothing
// another worker's models share. Two per-search tables, created with the root
// model and shared by every copy of it, hold what would otherwise be copied
// at every fork. Sent messages live in the MessageTable
// (check/message_table.hpp). The manager lives in the ManagerTable
// (check/manager_table.hpp): the model holds a 4-byte handle to its interned
// value, whose fingerprints are computed once per distinct value, and a
// manager step the search has taken before is a lookup of its next value and
// effects instead of a core step. The model still applies those effects
// itself, so every property below is checked on every step. A model that
// records transitions, and the request that start() issues, step the real
// core. An in-flight message is a trivially copyable
// 32-byte record: seq, delivery time, the content's structural hash, its
// table handle, the agent endpoint (process id and its index in the model)
// and the direction. So the in-flight list — 15 messages on average in the
// exhaustive pair search, up to 30 — copies as plain bytes, with no
// reference count, and a delivery passes the cores a pointer from the table
// (proto/core/io.hpp's delivery contract). At each state it
// exposes the set of enabled Choices (deliver / drop / duplicate an in-flight
// message, fire an armed timer); applying a choice feeds the corresponding
// Input to the owning core and executes the resulting Outputs against the
// virtual network, the virtual timers, and an inline process model
// (prepare/apply always succeed and complete synchronously, as with the
// NullProcess used by the runtime conformance tests).
//
// Safety properties are checked as outputs are applied, from what the model
// observes rather than the cores' internal state:
//
//   P1  every committed configuration satisfies the invariant set (§4.3's
//       "adaptation moves along safe configurations");
//   P2  a step's first `resume`, whoever it goes to, follows the delivered
//       `adapt done` (or subsuming `resume done`) of every process reset for
//       the step (§4.3); agents report progress only on steps they were reset
//       for (Fig. 1/2);
//   P3  no `rollback` of a step after its `resume`, nor the reverse (§4.4
//       run-to-completion rule);
//   P4  in-actions and undos only execute while the process is blocked in its
//       safe state — blocked processes stay blocked until resume/rollback;
//   P5  the terminal AdaptationOutcome is legal (§4.4): when it is emitted,
//       a Success rests at the target and a rollback or no-path outcome at
//       the source (proto::outcome_violations); a quiescent run has an
//       outcome (no deadlock), and after a Success every process is unblocked
//       and every agent back in `running` (proto::outcome_agent_violations).
//
// P2 and P3 are proto::SafetyMonitor's rules, fed the manager's sends as the
// core emits them and its deliveries as they arrive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/manager_table.hpp"
#include "check/message_table.hpp"
#include "check/scenario.hpp"
#include "obs/event.hpp"
#include "proto/conformance.hpp"
#include "proto/core/agent_core.hpp"
#include "proto/core/io.hpp"
#include "proto/core/manager_core.hpp"
#include "proto/messages.hpp"
#include "util/small_vector.hpp"

namespace sa::check {

/// One schedulable event the explorer may pick next. Messages and timers are
/// identified by their creation sequence number, which is deterministic given
/// the schedule prefix — a (kind, seq) list therefore replays exactly.
struct Choice {
  enum class Kind : std::uint8_t { Deliver, Drop, Duplicate, Fire };
  static constexpr std::size_t kKinds = 4;
  Kind kind = Kind::Deliver;
  std::uint64_t seq = 0;

  bool operator==(const Choice&) const = default;
};

const char* to_string(Choice::Kind kind);

/// Static footprint of one enabled choice: which core it steps and which
/// directed manager<->agent channel it touches. This is the independence
/// oracle the engine's DPOR sleep sets are computed from — two choices are
/// dependent iff they step the same core, target the same message/timer, or
/// would append to the same FIFO channel in a different order (see
/// choices_dependent). Footprints are stable for the lifetime of the choice:
/// an in-flight message never changes channel or receiver, an armed timer
/// never changes owner, so a footprint computed when a choice goes to sleep
/// stays valid in every descendant state.
struct ChoiceFootprint {
  static constexpr std::uint8_t kEntityNone = 0xff;     ///< pure network op
  static constexpr std::uint8_t kEntityManager = 0xfe;  ///< the manager core
  /// Role fingerprint used for orbit-stable sleep-set hashing when symmetry
  /// reduction is active (the manager has no orbit; agents use their static
  /// role fingerprint so interchangeable agents hash identically).
  static constexpr std::uint64_t kManagerRole = 0x9ddfea08eb382d69ULL;

  Choice choice;
  Choice::Kind kind = Choice::Kind::Deliver;
  std::uint8_t entity = kEntityNone;         ///< core stepped by the choice
  std::uint8_t channel_agent = kEntityNone;  ///< agent endpoint of the channel
  bool channel_to_manager = false;           ///< channel direction
  std::uint64_t content = 0;  ///< structural message fp / timer slot class
  std::uint64_t role = 0;     ///< role fp of the entity / channel agent
};

/// What the independence relation reads of a footprint: 16 bytes, so the
/// engine's sleep entries (this plus a hash) stay small.
struct ChoiceAccess {
  std::uint64_t seq = 0;
  Choice::Kind kind = Choice::Kind::Deliver;
  std::uint8_t entity = ChoiceFootprint::kEntityNone;
  std::uint8_t channel_agent = ChoiceFootprint::kEntityNone;
  bool channel_to_manager = false;

  static ChoiceAccess of(const ChoiceFootprint& fp) {
    return {fp.choice.seq, fp.kind, fp.entity, fp.channel_agent, fp.channel_to_manager};
  }
};

/// Conservative independence relation over co-enabled choices. Dependent iff:
/// same seq (same message or timer), same core stepped (receiver for
/// deliveries, owner for timer fires — a core's inputs must stay totally
/// ordered), both drops or both duplicates (shared adversary budget), or a
/// duplicate racing the producer of its channel (both append to the same
/// FIFO tail, so their order is observable). Everything else commutes:
/// deliveries on distinct channels, timer fires on distinct processes, and
/// appends racing the consumption of an earlier message on the same channel
/// (tail vs head of the queue). Symmetric.
inline bool choices_dependent(const ChoiceAccess& a, const ChoiceAccess& b) {
  if (a.seq == b.seq) return true;  // same message / same timer
  if (a.entity != ChoiceFootprint::kEntityNone && a.entity == b.entity) return true;
  // Drops share the drop budget, duplicates the dup budget: executing one can
  // disable the other, so their order is never free.
  if (a.kind == b.kind && (a.kind == Choice::Kind::Drop || a.kind == Choice::Kind::Duplicate)) {
    return true;
  }
  // A duplicate appends a copy to the tail of its channel. So does the
  // channel's producer core when it steps — swapping them reorders the FIFO.
  const auto dup_races_producer = [](const ChoiceAccess& dup, const ChoiceAccess& other) {
    if (dup.kind != Choice::Kind::Duplicate) return false;
    const std::uint8_t producer =
        dup.channel_to_manager ? dup.channel_agent : ChoiceFootprint::kEntityManager;
    return other.entity == producer;
  };
  return dup_races_producer(a, b) || dup_races_producer(b, a);
}

inline bool choices_dependent(const ChoiceFootprint& a, const ChoiceFootprint& b) {
  return choices_dependent(ChoiceAccess::of(a), ChoiceAccess::of(b));
}

using Violation = proto::SafetyViolation;

class Model {
 public:
  struct Limits {
    int drop_budget = 0;  ///< messages the adversary may destroy
    int dup_budget = 0;   ///< messages the adversary may duplicate
    /// When false (default) each directed manager<->agent channel is FIFO:
    /// only its oldest in-flight message is deliverable. When true any
    /// in-flight message is deliverable (full reordering).
    bool reorder = false;
  };

  /// `scenario` must outlive the model (and all copies); the cores keep
  /// pointers into its analysis data. Throws std::invalid_argument if the
  /// scenario uses a process id >= 64 (the manager core's per-step process
  /// sets are bitmask-backed).
  Model(const Scenario& scenario, Limits limits,
        proto::ManagerFault fault = proto::ManagerFault::None);

  /// Pre-start failure injection: the agent on `process` never reaches its
  /// safe state (drives the §4.4 rollback / re-plan chain).
  void set_fail_to_reset(config::ProcessId process, bool fail);

  /// Issues the scenario's single adaptation request (source -> target).
  void start();

  /// Enabled choices at this state, in deterministic order.
  std::vector<Choice> choices() const;

  /// Allocation-lean variant: clears and refills `out`. The explorer calls
  /// this once per expanded state with a per-worker scratch buffer, so the
  /// hot loop does not allocate a fresh vector per state.
  void choices(std::vector<Choice>& out) const;

  /// The choice the deterministic simulator would take: the enabled
  /// deliver/fire event with the smallest (due time, creation seq) — drops
  /// and duplicates never happen by themselves. Empty at quiescence.
  std::optional<Choice> sim_choice() const;

  /// Applies one choice; returns false if it is not currently enabled
  /// (stale seq — a replay against a diverged model). Any property
  /// violations it causes are appended to violations().
  bool apply(const Choice& choice);

  /// End-of-run checks (P5); call once no choices remain.
  void finalize();

  const std::vector<Violation>& violations() const { return violations_; }
  /// The manager's terminal result, or nullptr while the request is open.
  const proto::AdaptationSummary* outcome() const { return outcome_ ? &*outcome_ : nullptr; }
  /// Fig. 1 / Fig. 2 transitions in emission order, as the runtime drivers
  /// record them (proto::transition_event), on the manager track or the
  /// agent's process track; seq is the index, time the model's clock.
  const std::vector<obs::Event>& transitions() const { return transitions_; }
  runtime::Time now() const { return now_; }
  std::size_t messages_in_flight() const { return in_flight_.size(); }

  /// Transitions are recorded for replay/conformance comparisons; the
  /// explorer turns them off, because copying a growing vector of events at
  /// every fork dominated fork cost. Turning recording off also drops the
  /// events already recorded (start() records two), so a search's forks copy
  /// no event at all; turning it back on records from seq 0. Default on.
  void set_record_transitions(bool record);

  /// Hash of all protocol-relevant state: both cores, process blocked flags,
  /// channel contents, armed timers, and remaining adversary budgets.
  /// Timestamps are deliberately excluded — the cores' control flow never
  /// depends on them, so states differing only in time are equivalent.
  /// The manager's contribution is computed once per distinct value, in the
  /// manager table; an agent's is cached and recomputed only after that
  /// agent steps, so a fingerprint after a one-core edge hashes at most one
  /// core.
  std::uint64_t fingerprint() const;

  /// Symmetry-reduced variant of fingerprint(): hashes a canonical orbit
  /// representative instead of the concrete state. Each agent contributes one
  /// self-contained sub-fingerprint (static role + core state + blocked flag
  /// + timer + its slice of the manager's per-process ack sets + both of its
  /// directed channels' message sequences in FIFO order); the sub-fingerprints
  /// are sorted before mixing, so states that differ only by a permutation of
  /// same-role agents — or by the creation-order interleaving of messages on
  /// distinct channels — hash identically. Used for deduplication only; never
  /// for replay (counterexample schedules stay concrete).
  ///
  /// Nothing here walks the in-flight list: each channel's FIFO hash is kept
  /// on its agent by the edits themselves (an append mixes one message in, a
  /// removal re-hashes that one channel), and the per-agent subs are
  /// insertion-sorted in an inline array. The key is bit-identical to hashing
  /// every channel from scratch.
  std::uint64_t canonical_fingerprint() const;

  /// The footprint of every enabled choice, in choices() order (so each
  /// carries its Choice), made in one pass over the in-flight list: clears
  /// and refills `out`. The DPOR engine calls this instead of choices().
  void choice_footprints(std::vector<ChoiceFootprint>& out) const;

  /// Footprint of one currently enabled choice, for the DPOR independence
  /// relation. Throws std::out_of_range if `choice` is not enabled.
  ChoiceFootprint choice_footprint(const Choice& choice) const;

  /// The search's message table, shared by this model and all its copies.
  const MessageTable& message_table() const { return table_->messages; }
  /// The `i`-th in-flight message in creation order, as the table holds it.
  const runtime::MessagePtr& in_flight_message(std::size_t i) const {
    return table_->messages.message(in_flight_[i].message);
  }
  /// The search's manager table, shared like the message table, and the
  /// handle of this model's manager value in it.
  const ManagerTable& manager_table() const { return table_->managers; }
  ManagerTable::Handle manager_state() const { return manager_; }

 private:
  struct InFlight {
    std::uint64_t seq = 0;
    runtime::Time deliver_at = 0;
    /// Structural hash of the message (MessageTable::fingerprint), copied
    /// here so fingerprint() reads no table entry.
    std::uint64_t msg_fp = 0;
    MessageTable::Handle message = 0;
    std::uint8_t agent = 0;  ///< process id of the agent endpoint (< 64)
    std::uint8_t slot = 0;   ///< that agent's index in agents_
    bool to_manager = false;  ///< direction; `agent` is the other endpoint
  };
  static_assert(std::is_trivially_copyable_v<InFlight> && sizeof(InFlight) == 32,
                "a fork copies the in-flight list as plain bytes");

  /// The per-search tables, made with the root model.
  struct Tables {
    explicit Tables(const config::ComponentRegistry& registry) : messages(registry) {}
    MessageTable messages;
    ManagerTable managers;
  };

  /// Shared ownership of the search's tables whose copy-assignment between
  /// models of one search leaves the reference count alone, whatever the
  /// standard library does: the explorer's forks assign into recycled models
  /// of the same search, so a fork writes no count that both workers write.
  class TableRef {
   public:
    explicit TableRef(const config::ComponentRegistry& r) : tables_(std::make_shared<Tables>(r)) {}
    TableRef(const TableRef&) = default;
    TableRef(TableRef&&) noexcept = default;
    TableRef& operator=(const TableRef& other) {
      if (tables_ != other.tables_) tables_ = other.tables_;
      return *this;
    }
    TableRef& operator=(TableRef&&) noexcept = default;
    Tables* operator->() const { return tables_.get(); }

   private:
    std::shared_ptr<Tables> tables_;
  };

  struct TimerSlot {
    bool armed = false;
    runtime::Time deadline = 0;
    std::uint64_t seq = 0;  ///< creation seq of the current arm
  };

  /// Seed of a channel's FIFO hash; an empty channel hashes to it.
  static constexpr std::uint64_t kChannelSeed = 0xcbf29ce484222325ULL;

  struct AgentEntity {
    proto::AgentCore core;
    TimerSlot timer;
    bool blocked = false;  ///< virtual process state (P4)
    int stage = 0;         ///< reset stage (static role data)
    /// Hash of the agent's static role: reset stage plus the names of the
    /// components hosted on its process. Two agents are interchangeable for
    /// symmetry reduction only if their roles match; also keys the orbit-
    /// stable sleep-set hash (see engine.cpp).
    std::uint64_t role_fp = 0;
    bool fail_to_reset = false;  ///< mirrors AgentCore fault injection
    /// Cached core.fingerprint() from a fixed seed; valid iff core_fp_valid.
    mutable std::uint64_t core_fp = 0;
    mutable bool core_fp_valid = false;
    /// The static head of the agent's canonical sub: its role and
    /// fail_to_reset mixed into the sub's seed, redone when either changes.
    std::uint64_t sub_seed = 0;
    /// FIFO hash and length of each directed channel of this agent, indexed
    /// by InFlight::to_manager: every message on it, oldest first, mixed into
    /// kChannelSeed. Always current: send() and a duplicate mix the appended
    /// message in, remove_in_flight() re-hashes the channel it shortens.
    std::uint64_t channel_fp[2] = {kChannelSeed, kChannelSeed};
    std::uint32_t channel_len[2] = {0, 0};
    explicit AgentEntity(proto::AgentConfig config) : core(config) {}
  };

  AgentEntity& agent_at(config::ProcessId process);
  const AgentEntity& agent_at(config::ProcessId process) const;
  /// Index of `process` in agents_; throws std::out_of_range if unknown.
  std::uint8_t slot_of(config::ProcessId process) const;
  /// Appends the interned `message` to the network.
  void send(bool to_manager, std::uint8_t slot, MessageTable::Handle message);
  /// Appends `m` to the network and mixes it into its channel's hash.
  void append_in_flight(const InFlight& m);
  /// Erases the in-flight message at `index` (a delivery or a drop) and
  /// re-hashes its channel.
  void remove_in_flight(std::size_t index);
  bool deliverable(const InFlight& m) const;
  /// Calls `visit` on every deliverable in-flight message, oldest first.
  template <typename Visit>
  void for_each_deliverable(Visit&& visit) const;
  void deliver(const InFlight& m);
  /// Steps the manager on `input` and applies the step's effects. Unless
  /// transitions are being recorded, a step with a `memo_input` key
  /// (ManagerTable::timer_input / delivery_input) is taken from the memo,
  /// or stepped and recorded there on a miss.
  void step_manager(const proto::ManagerInput& input, std::optional<std::uint64_t> memo_input);
  /// Steps one agent and applies its outputs, invalidating its cached
  /// fingerprint first.
  void step_agent(config::ProcessId process, const proto::AgentInput& input);
  std::uint64_t agent_core_fp(const AgentEntity& entity) const;
  /// Moves the manager to `next` and applies a step's effects, in order.
  void apply_manager_step(ManagerTable::Handle next,
                          std::span<const ManagerTable::Effect> effects);
  void apply_agent_outputs(config::ProcessId process, const std::vector<proto::Output>& outputs);
  void dispatch_agent_local(config::ProcessId process, proto::AgentLocalEvent event);
  void record_transition(obs::EventKind kind, const proto::Output& out, std::int64_t track);
  void violation(std::string description);

  const Scenario* scenario_;
  Limits limits_;
  TableRef table_;

  ManagerTable::Handle manager_ = 0;  ///< the manager's value in the table
  TimerSlot mgr_protocol_;
  TimerSlot mgr_stage_;
  /// Sorted by process id. Inline (not a std::map) because the explorer
  /// copies the whole model at every fork; lookups are linear over a handful
  /// of agents.
  util::SmallVector<std::pair<config::ProcessId, AgentEntity>, 4> agents_;

  util::SmallVector<InFlight, 16> in_flight_;  ///< ascending seq (push order)
  /// Directed channels holding at least one message: a FIFO walk for the
  /// deliverable heads stops once it has seen that many.
  std::uint32_t open_channels_ = 0;
  runtime::Time now_ = 0;
  runtime::Time started_ = 0;  ///< when start() issued the request
  std::uint64_t next_seq_ = 1;
  int drops_left_ = 0;
  int dups_left_ = 0;
  bool record_transitions_ = true;

  proto::SafetyMonitor monitor_;  ///< P2/P3 over the manager's sends and receives
  std::vector<Violation> violations_;
  /// Held by value: the summary has no text, so a fork copies plain bytes.
  std::optional<proto::AdaptationSummary> outcome_;
  std::vector<obs::Event> transitions_;
};

}  // namespace sa::check
