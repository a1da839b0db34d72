// DataPlanePump: N concurrent packet streams driven through encode/decode
// filter chains by real threads — the loaded data plane the batched
// (arena + span) path exists for.
//
// Per lane (stream):
//   * a PRODUCER thread runs a real-time loop generating payload batches
//     straight into per-slot arenas (one rng fill, zero copies);
//   * a lock-free SPSC ring of slots hands batches to the lane's PUMP thread
//     (atomic produced/consumed counters, acquire/release — no locks on the
//     hot path);
//   * the pump thread moves each batch through the lane's encode chain and
//     then its decode chain via FilterChain::process_batch, verifies
//     integrity, records the batch's hand-off + processing delay, recycles
//     the slot's arena, and releases the slot.
//
// Quiescence stays PER CHAIN, exactly as in §5.2: an adaptation request makes
// the pump thread park at the next batch boundary — the batch is the critical
// communication segment — after driving both chains through the ordinary
// request_quiescence/blocked protocol. The caller then swaps filters on the
// blocked chains and resume()s them. Blocked-window count and duration are
// reported per lane, so loaded adaptation disruption is directly measurable.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "components/arena.hpp"
#include "components/filter_chain.hpp"

namespace sa::video {

struct PumpConfig {
  std::size_t streams = 1;
  std::size_t batch_size = 64;        ///< packets per batch
  std::size_t ring_slots = 8;         ///< SPSC ring depth (per lane)
  std::size_t payload_bytes = 256;
  std::uint64_t packets_per_stream = 1'000'000;  ///< producer stops after this many
  double producer_pps = 0;            ///< real-time pacing; 0 = as fast as possible
  std::uint64_t seed = 7;
};

/// Builds each lane's chains. Called once per lane at start(); chains must be
/// constructed against the provided clock.
using ChainBuilder = std::function<void(std::size_t lane, runtime::Clock& clock,
                                        components::FilterChain& encode,
                                        components::FilterChain& decode)>;

struct LaneReport {
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t intact = 0;
  std::uint64_t corrupted = 0;    ///< checksum mismatch after full decode
  std::uint64_t undecodable = 0;  ///< left the decode chain still tagged
  std::uint64_t batches = 0;
  double elapsed_s = 0;
  double pps = 0;                 ///< delivered packets / elapsed wall time
  double p50_delay_us = 0;        ///< batch hand-off + processing delay
  double p99_delay_us = 0;
  double max_delay_us = 0;
  std::uint64_t blocked_windows = 0;
  double blocked_us = 0;          ///< total wall time lanes spent parked
};

class DataPlanePump {
 public:
  explicit DataPlanePump(PumpConfig config);
  ~DataPlanePump();

  DataPlanePump(const DataPlanePump&) = delete;
  DataPlanePump& operator=(const DataPlanePump&) = delete;

  /// Builds lanes (chains via `builder`; default: E1 encoder / D1 decoder
  /// with the case-study keys) and starts 2·streams threads.
  void start(ChainBuilder builder = {});

  /// Asks producers to stop early, drains the rings, joins all threads.
  /// Idempotent.
  void stop_and_join();

  /// Blocks until every producer has emitted its packets_per_stream quota and
  /// the rings have drained, then joins.
  void run_to_completion();

  bool running() const { return running_; }
  std::size_t streams() const { return config_.streams; }

  /// §5.2 handshake against a running lane: parks the lane's pump thread at
  /// the next batch boundary with both chains blocked, runs `adapt` from the
  /// calling thread, then returns once the lane has resumed — every call
  /// opens and closes its own blocked window (calls on one lane serialize).
  /// Safe to call concurrently for different lanes. After the pump has
  /// finished, `adapt` runs directly (chains idle).
  void adapt_lane(std::size_t lane,
                  const std::function<void(components::FilterChain& encode,
                                           components::FilterChain& decode)>& adapt);

  LaneReport lane_report(std::size_t lane) const;
  /// Sum over lanes; delay percentiles are the worst lane's.
  LaneReport total_report() const;

 private:
  struct Slot {
    components::PacketArena arena{64 * 1024};
    std::vector<components::PacketRef> refs;
    std::chrono::steady_clock::time_point produced_at;
  };

  struct Lane;

  void producer_loop(Lane& lane);
  void pump_loop(Lane& lane);
  void park_lane(Lane& lane);
  void process_slot(Lane& lane, Slot& slot);

  void join_all();

  PumpConfig config_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<bool> stop_requested_{false};
  bool running_ = false;
};

}  // namespace sa::video
