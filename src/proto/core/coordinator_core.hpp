// The sans-I/O coordinator: one node of the hierarchical manager tree
// (region -> shard -> collaborative set) that scales the paper's §7
// decomposition from a single flat fan-out to a fleet.
//
// A coordinator owns a set of CHILD coordinators (each covering a subtree of
// shards) and a set of LOCAL shards organized into lanes (shards sharing a
// process serialize into a lane; disjoint lanes execute concurrently —
// exactly the one-level composite's lane rule, now applied per tree node).
// Requests batch per EPOCH:
//
//   Idle --submit--> Batching          open a batch, arm the epoch window
//   Batching --submit--> Batching      coalesce (same shard: later target wins)
//   Batching --epoch window--> Committing
//       seal: one EpochCommitMsg per involved child, the first ExecuteShard
//       of every involved local lane, arm the commit timeout
//   Committing --child done / shard finished--> collect, advance lanes
//   Committing --all reported--> emit per-ticket results, open next batch
//   Committing --commit timeout--> orphan unreported shards, then complete
//
// Partial failure preserves the §4.4 contract per shard: a failed or orphaned
// shard's result never blocks, masks, or rolls back a disjoint shard; results
// aggregate upward as per-shard ShardOutcome lists. Like ManagerCore /
// AgentCore, this class is a pure value: step(Input, Output sink) with
// time as plain data, so one core definition is driven identically by the
// runtime driver, the fuzz campaign, and (being fingerprintable) explorers.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "proto/core/io.hpp"
#include "runtime/time.hpp"

namespace sa::proto {

struct CoordinatorConfig {
  /// How long a freshly-opened batch accumulates before sealing. Interior
  /// coordinators use 0 (their parent already batched; re-batching would
  /// only add latency per level).
  runtime::Time epoch_window = runtime::us(500);
  /// Backstop for partitioned/crashed subtrees: after this long in
  /// Committing, unreported shards are orphaned so the pipeline can advance.
  runtime::Time commit_timeout = runtime::seconds(30);
};

/// Deliberate protocol bugs for the conformance must-fail gate (mirrors
/// ManagerFault): a broken coordinator must be CAUGHT by the trace checker.
enum class CoordinatorFault : std::uint8_t {
  None,
  /// Seals announce a stale epoch number on the wire: children deduplicate
  /// the commit as already-seen, shards orphan, and the trace shows one epoch
  /// committed twice with different targets — an out-of-epoch commit.
  CommitOutOfEpoch,
};

class CoordinatorCore {
 public:
  explicit CoordinatorCore(CoordinatorConfig config = {}) : config_(config) {}

  // --- topology (fixed before the first submit) -----------------------------
  /// Registers a child subtree covering `shards` (sorted, global shard ids);
  /// returns the child index used in ChildDone inputs and Send outputs.
  std::size_t add_child(std::vector<std::uint32_t> shards);
  /// Registers a shard executed by this coordinator's own managers; shards
  /// with equal `lane` serialize, distinct lanes run concurrently.
  void add_local_shard(std::uint32_t shard, std::uint32_t lane);
  void set_has_parent(bool has_parent) { has_parent_ = has_parent; }
  bool has_parent() const { return has_parent_; }
  /// Seed for this coordinator's derived epoch span ids (the driver passes
  /// its NodeId). Epoch N's span is span_of(seed, SpanKind::Epoch, N).
  void set_span_seed(std::uint64_t seed) { span_seed_ = seed; }

  CoordinatorPhase phase() const { return phase_; }
  bool idle() const { return phase_ == CoordinatorPhase::Idle; }
  /// Number of the most recently sealed epoch (0 before the first seal).
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t epochs_completed() const { return epochs_completed_; }

  /// Clears `out` and appends the input's outputs (see proto/core/io.hpp).
  void step(const CoordinatorInput& input, std::vector<Output>& out);

  void inject_fault(CoordinatorFault fault) { fault_ = fault; }

  /// Mixes the coordinator's logical state into `h` (explorer-style dedup).
  void fingerprint(std::uint64_t& h) const;

 private:
  /// One lane's sealed work: targets in shard order, executed sequentially.
  struct LaneRun {
    std::vector<ShardTarget> queue;
    std::size_t next = 0;
  };
  struct Ticket {
    std::uint64_t id = 0;
    std::vector<std::uint32_t> shards;  ///< sorted shard ids it asked for
    std::uint64_t parent_span = 0;      ///< causing span (root ticket span or
                                        ///< the parent's epoch span)
  };
  /// The sealed epoch in flight.
  struct Commit {
    std::uint64_t wire = 0;  ///< epoch number announced on the wire
    std::vector<Ticket> tickets;
    std::map<std::size_t, std::vector<std::uint32_t>> child_outstanding;
    std::map<std::uint32_t, LaneRun> lanes;
    std::size_t local_outstanding = 0;
    std::map<std::uint32_t, ShardOutcome> collected;
  };

  void on_submit(const CoordinatorInput::SubmitRequest& submit, runtime::Time now,
                 std::vector<Output>& out);
  void on_child_done(const CoordinatorInput::ChildDone& done, runtime::Time now,
                     std::vector<Output>& out);
  void on_shard_finished(const CoordinatorInput::ShardFinished& finished, runtime::Time now,
                         std::vector<Output>& out);
  void seal(runtime::Time now, std::vector<Output>& out);
  void on_commit_timeout(runtime::Time now, std::vector<Output>& out);
  /// Completes the epoch once nothing is outstanding; `timed_out` skips the
  /// DisarmTimer (the commit timer already fired).
  void maybe_complete(runtime::Time now, std::vector<Output>& out, bool timed_out);
  void open_epoch(std::vector<Output>& out);
  void transition(CoordinatorPhase to, std::vector<Output>& out);
  std::uint64_t wire_epoch() const;
  std::uint64_t epoch_span(std::uint64_t epoch) const;
  void note_duplicate(const char* label, std::string detail, std::vector<Output>& out);

  CoordinatorConfig config_;
  CoordinatorFault fault_ = CoordinatorFault::None;
  bool has_parent_ = false;
  std::uint64_t span_seed_ = 0;

  std::vector<std::vector<std::uint32_t>> children_;  ///< child -> covered shards
  std::map<std::uint32_t, std::uint32_t> local_lane_;  ///< local shard -> lane

  CoordinatorPhase phase_ = CoordinatorPhase::Idle;
  std::uint64_t epoch_ = 0;
  std::uint64_t epochs_completed_ = 0;
  std::uint64_t last_parent_ticket_ = 0;  ///< dedup for parent re-commits

  // The open batch. Accumulates while Batching — and during Committing, where
  // it becomes the NEXT epoch (group commit across submission bursts).
  std::map<std::uint32_t, config::Configuration> pending_;  ///< shard -> target
  std::size_t coalesced_ = 0;
  std::vector<Ticket> tickets_;

  Commit commit_;
};

}  // namespace sa::proto
