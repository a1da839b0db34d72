// FilterChain: this repository's MetaSocket (paper §2).
//
// A chain of filters through which packets flow in order.  Its structure can
// be recomposed at run time (insert / remove / replace a filter) — those are
// the transmutations the adaptive actions execute.  The chain also implements
// the *local safe state* machinery of §5.2: an agent requests quiescence, the
// chain finishes the packet currently being processed (the critical
// communication segment at this granularity), then blocks itself and notifies
// the agent.  While blocked, arriving packets queue; resume() drains them.
//
// Packets take virtual time to traverse the chain (a fixed overhead plus each
// filter's processing time), so blocking during adaptation produces the
// packet-delay costs the paper's Table 2 reports.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "components/filter.hpp"
#include "runtime/clock.hpp"

namespace sa::components {

struct ChainStats {
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  /// Σ over filter stages of (packets into the stage − packets out of it),
  /// counted only when a stage emits fewer than it received. A stage that
  /// fans out (FEC parity) never counts; an absorbed parity packet does.
  /// Both submit and process_batch count it this way.
  std::uint64_t dropped_by_filters = 0;
  runtime::Time total_delay = 0;  ///< sum over delivered packets of (exit - entry)
  runtime::Time max_delay = 0;
  // Batched path (process_batch) only:
  std::uint64_t batches = 0;
  runtime::Time batch_virtual_time = 0;  ///< overhead + Σ filter times, once per batch
};

class FilterChain : public Component {
 public:
  using OutputHandler = std::function<void(Packet)>;
  using QuiescenceHandler = std::function<void()>;

  FilterChain(runtime::Clock& clock, std::string name, runtime::Time per_packet_overhead = runtime::us(20));

  // --- composition (transmutations) ----------------------------------------

  /// Inserts at `index` (clamped to [0, size]).
  void insert_filter(std::size_t index, FilterPtr filter);
  void append_filter(FilterPtr filter) { insert_filter(filters_.size(), std::move(filter)); }

  /// Removes the named filter and returns it; nullptr when absent.
  FilterPtr remove_filter(const std::string& filter_name);

  /// Replaces `old_name` in place; returns the old filter, or nullptr (and
  /// performs nothing) when `old_name` is absent.
  FilterPtr replace_filter(const std::string& old_name, FilterPtr replacement);

  bool has_filter(const std::string& filter_name) const;
  std::vector<std::string> filter_names() const;
  std::size_t size() const { return filters_.size(); }

  // --- data path (invocations) ----------------------------------------------

  /// Clock-scheduled entry point: queues the packet for processing. Each
  /// packet is charged overhead + Σ filter processing times of virtual time
  /// and then runs through the filters as a batch of one (see process_batch)
  /// at its completion time; per-packet delays go to total_delay/max_delay.
  /// The batch counters are left untouched.
  void submit(Packet packet);

  /// Exit callback, invoked when a packet leaves the last filter.
  void set_output(OutputHandler handler) { output_ = std::move(handler); }

  /// Batched data path: moves a whole span through every filter
  /// synchronously (no clock events) and emits survivors to `sink` in order.
  /// Intermediate and transformed payloads are allocated from sink.arena();
  /// bypassed packets forward their input refs untouched. Virtual-time
  /// accounting runs ONCE per batch (overhead + Σ filter times →
  /// stats().batch_virtual_time), not once per packet — that, plus zero
  /// copies and no event-queue churn, is where the batched plane's
  /// throughput comes from. Returns the number of packets emitted.
  ///
  /// Quiescence interacts at batch granularity: the batch is the critical
  /// segment, so a pending request blocks the chain AFTER the current batch
  /// completes (never mid-span). Calling while blocked() is a protocol
  /// violation and throws — the caller (the pump) parks at batch boundaries.
  std::size_t process_batch(std::span<PacketRef> batch, PacketSink& sink);

  // --- safe-state protocol hooks ---------------------------------------------

  /// Quiescence granularity: Packet blocks after the in-flight packet
  /// completes (the *local safe state*); Drain additionally waits until the
  /// input queue is empty (the *global safe condition* for a receiver — every
  /// packet the sender emitted has been fully processed).
  enum class QuiescenceMode { Packet, Drain };

  /// Sets the "resetting" flag (§5.2): once quiescent per `mode`, the chain
  /// blocks and fires `on_quiescent`. Fires immediately if already there.
  /// Only one outstanding request at a time.
  void request_quiescence(QuiescenceHandler on_quiescent,
                          QuiescenceMode mode = QuiescenceMode::Packet);

  /// Abandons a pending quiescence request / unblocks without adapting
  /// (rollback path).
  void cancel_quiescence();

  /// True iff no packet is mid-processing (the local safe state).
  bool quiescent() const { return !busy_; }
  bool blocked() const { return blocked_; }

  /// Releases a blocked chain and drains the queue.
  void resume();

  std::size_t queued() const { return queue_.size(); }
  const ChainStats& stats() const { return stats_; }

  StateSnapshot refract() const override;
  bool transmute(const std::string& key, const std::string& value) override;

 private:
  void maybe_start_next();
  void finish_packet(const Packet& packet, runtime::Time entry_time);
  void block_and_notify();

  /// The stage loop both data paths share: runs `batch` through every filter
  /// in order, allocating from `arena`, and returns the survivors (a view of
  /// batch_scratch_in_, valid until the next call).
  std::span<PacketRef> run_stages(std::span<PacketRef> batch, PacketArena& arena);

  runtime::Clock* clock_;
  runtime::Time per_packet_overhead_;
  std::vector<FilterPtr> filters_;
  OutputHandler output_;

  struct Pending {
    Packet packet;
    runtime::Time entry_time;
  };
  std::deque<Pending> queue_;
  bool busy_ = false;
  bool blocked_ = false;
  bool resetting_ = false;
  QuiescenceMode quiescence_mode_ = QuiescenceMode::Packet;
  QuiescenceHandler on_quiescent_;

  ChainStats stats_;

  // Scratch double-buffer for run_stages (kept to avoid per-batch heap
  // traffic once warmed up).
  std::vector<PacketRef> batch_scratch_in_;
  std::vector<PacketRef> batch_scratch_out_;
  // Holds the submit path's batch of one; reset before each packet.
  PacketArena arena_{16 * 1024};
};

}  // namespace sa::components
