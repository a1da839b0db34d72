// Protocol messages between the adaptation manager and its agents
// (paper §4.3, Courier-font message names in Figures 1 and 2).
//
// Every message carries the (request, step, attempt) coordinates so agents
// can deduplicate retransmissions: the manager resends unacknowledged
// messages on timeout (loss-of-message handling, §4.4), and agents respond
// idempotently to duplicates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/configuration.hpp"
#include "proto/core/states.hpp"
#include "runtime/message.hpp"
#include "runtime/time.hpp"

namespace sa::proto {

/// The verdict and counts of one finished adaptation request, without its
/// text: what the manager core keeps and the model checker copies, as plain
/// bytes.
struct AdaptationSummary {
  AdaptationOutcome outcome = AdaptationOutcome::Success;
  config::Configuration final_config;
  std::size_t steps_committed = 0;
  std::size_t step_failures = 0;    ///< rollbacks of individual steps
  std::size_t plans_tried = 1;
  std::size_t message_retries = 0;  ///< retransmission rounds
  runtime::Time started = 0;
  runtime::Time finished = 0;

  bool operator==(const AdaptationSummary&) const = default;
};

/// Everything the manager can learn about one finished adaptation request.
/// Lives here (not io.hpp) because coordinator messages carry per-shard
/// results up the manager tree.
struct AdaptationResult : AdaptationSummary {
  std::string detail;
};

/// The local in-action one agent must execute: which components (filters) to
/// remove from and add to its process's chain. Derived by the manager from
/// the adaptive action's removes/adds restricted to that agent's process.
struct LocalCommand {
  std::vector<std::string> remove;
  std::vector<std::string> add;

  bool empty() const { return remove.empty() && add.empty(); }
  std::string describe() const;
  bool operator==(const LocalCommand&) const = default;
};

/// Coordinates identifying one adaptation step attempt. The plan number
/// distinguishes steps of different paths tried within one request (§4.4
/// strategy 2 re-plans reuse step indices); without it, step 0 of an
/// alternative path would alias step 0 of the path it replaced and agents
/// would deduplicate fresh commands as retransmissions.
struct StepRef {
  std::uint64_t request_id = 0;  ///< adaptation request
  std::uint32_t plan = 0;        ///< which path within the request
  std::uint32_t step_index = 0;  ///< index within the path
  std::uint32_t attempt = 0;     ///< retry counter for this step

  bool operator==(const StepRef&) const = default;
  std::string describe() const;
};

/// runtime::Message::family() of the two protocol hierarchies below.
inline constexpr std::uint8_t kProtoFamily = 1;
inline constexpr std::uint8_t kCoordFamily = 2;

/// Closed enumeration of the protocol message types. Receivers switch on this
/// tag once as_proto() has found a protocol message; neither step needs RTTI.
enum class MsgKind : std::uint8_t {
  Reset,
  ResetDone,
  AdaptDone,
  Resume,
  ResumeDone,
  Rollback,
  RollbackDone,
};

struct ProtoMessage : runtime::Message {
  ProtoMessage() : runtime::Message(kProtoFamily) {}
  StepRef step;
  virtual MsgKind kind() const = 0;
};

/// `message` as a protocol message, or nullptr for any other traffic
/// (coordinator messages included). Reads the family tag instead of a
/// dynamic_cast, so the cores' per-delivery check costs one load.
inline const ProtoMessage* as_proto(const runtime::Message* message) {
  return message != nullptr && message->family() == kProtoFamily
             ? static_cast<const ProtoMessage*>(message)
             : nullptr;
}

/// manager -> agent: reach your safe state, then perform `command`.
struct ResetMsg final : ProtoMessage {
  LocalCommand command;
  bool drain = false;             ///< also satisfy the global safe condition
  bool sole_participant = false;  ///< Fig. 1: may resume without waiting
  std::string type_name() const override { return "reset"; }
  MsgKind kind() const override { return MsgKind::Reset; }
};

/// agent -> manager: safe state reached, process blocked.
struct ResetDoneMsg final : ProtoMessage {
  std::string type_name() const override { return "reset done"; }
  MsgKind kind() const override { return MsgKind::ResetDone; }
};

/// agent -> manager: local in-action complete.
struct AdaptDoneMsg final : ProtoMessage {
  std::string type_name() const override { return "adapt done"; }
  MsgKind kind() const override { return MsgKind::AdaptDone; }
};

/// manager -> agent: all in-actions complete; resume full operation.
struct ResumeMsg final : ProtoMessage {
  std::string type_name() const override { return "resume"; }
  MsgKind kind() const override { return MsgKind::Resume; }
};

/// agent -> manager: full operation resumed.
struct ResumeDoneMsg final : ProtoMessage {
  runtime::Time blocked_for = 0;  ///< how long the process was blocked (metrics)
  std::string type_name() const override { return "resume done"; }
  MsgKind kind() const override { return MsgKind::ResumeDone; }
};

/// manager -> agent: abort the step; undo any in-action and resume.
struct RollbackMsg final : ProtoMessage {
  std::string type_name() const override { return "rollback"; }
  MsgKind kind() const override { return MsgKind::Rollback; }
};

/// agent -> manager: rollback complete, process back to pre-step state.
struct RollbackDoneMsg final : ProtoMessage {
  std::string type_name() const override { return "rollback done"; }
  MsgKind kind() const override { return MsgKind::RollbackDone; }
};

// --- causal tracing ----------------------------------------------------------

/// Namespaces for derived span ids: one id scheme covers root tickets,
/// per-coordinator epochs, and per-manager adaptation requests.
enum class SpanKind : std::uint8_t { Ticket = 1, Epoch = 2, Request = 3 };

/// Derives a stable, collision-resistant span id from (seed, kind, n) —
/// a splitmix64-style finalizer over the three inputs, forced nonzero so 0
/// can mean "no span". Both ends of a protocol edge can compute the same id
/// independently (e.g. an agent derives its manager's request span from the
/// manager's node id and the request id), so no id ever rides a hot message.
constexpr std::uint64_t span_of(std::uint64_t seed, SpanKind kind, std::uint64_t n) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(kind) + 1);
  x ^= n + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x | 1;
}

/// Compact causal context carried on coordinator messages: enough for the
/// receiver to link the work the message causes back to the sender's span
/// tree without any lookup.
struct CausalContext {
  std::uint64_t ticket = 0;       ///< the ticket (child epoch) this commit names
  std::uint64_t epoch = 0;        ///< the sender's epoch number
  std::uint64_t parent_span = 0;  ///< span of the work that caused this message
  bool operator==(const CausalContext&) const = default;
};

// --- hierarchical coordination vocabulary (manager tree, §7 at fleet scale) --

/// One shard's slice of a group commit: drive shard `shard` to `target`.
/// Targets are expressed in the shard's LOCAL component ids; the root
/// coordinator translates global configurations exactly once.
struct ShardTarget {
  std::uint32_t shard = 0;
  config::Configuration target;
  bool operator==(const ShardTarget&) const = default;
};

/// One shard's fate inside a completed epoch. `reported == false` marks an
/// orphan: the commit timeout elapsed before the subtree responsible for the
/// shard reported, so its coordinator synthesized the outcome.
struct ShardOutcome {
  std::uint32_t shard = 0;
  bool reported = true;
  AdaptationResult result;
};

enum class CoordMsgKind : std::uint8_t { EpochCommit, EpochDone };

/// Parent <-> child coordinator traffic. A separate hierarchy from
/// ProtoMessage: coordinator links are keyed by epoch, not step coordinates.
struct CoordMessage : runtime::Message {
  CoordMessage() : runtime::Message(kCoordFamily) {}
  std::uint64_t epoch = 0;  ///< the committing parent's epoch number
  CausalContext ctx;        ///< causal span context (tracing only)
  virtual CoordMsgKind kind() const = 0;
};

/// `message` as a coordinator message, or nullptr for any other traffic.
inline const CoordMessage* as_coord(const runtime::Message* message) {
  return message != nullptr && message->family() == kCoordFamily
             ? static_cast<const CoordMessage*>(message)
             : nullptr;
}

/// parent -> child: execute this slice of sealed epoch `epoch`. A child
/// treats each distinct epoch as one submission ticket; re-deliveries of an
/// already-seen epoch are absorbed as duplicates.
struct EpochCommitMsg final : CoordMessage {
  std::vector<ShardTarget> targets;
  std::string type_name() const override { return "epoch commit"; }
  CoordMsgKind kind() const override { return CoordMsgKind::EpochCommit; }
};

/// child -> parent: every shard of `epoch`'s slice terminated (or was
/// orphaned by a deeper timeout), with per-shard §4.4 results.
struct EpochDoneMsg final : CoordMessage {
  std::vector<ShardOutcome> outcomes;
  std::string type_name() const override { return "epoch done"; }
  CoordMsgKind kind() const override { return CoordMsgKind::EpochDone; }
};

}  // namespace sa::proto
