// SocketRuntime: the distributed backend. Same Runtime surface the simulator
// and ThreadedRuntime present, but the Transport really crosses process
// boundaries over 127.0.0.1 sockets — this is the backend `sa_node` runs,
// one process per protocol participant, reproducing the paper's testbed
// shape (manager and agents on separate hosts).
//
//   * SocketTransport — one UDP socket + one TCP listener per LOCAL node.
//     Control messages travel as single UDP datagrams (wire.hpp frames);
//     frames above `max_datagram` fall back to a length-prefixed one-shot
//     TCP connection. A single receiver thread polls every local fd and
//     invokes handlers directly, so deliveries to one endpoint are
//     serialized exactly like the other backends.
//
//     FIFO across the wire: each sender stamps frames with a per-(from,to)
//     sequence number and a per-process-lifetime `incarnation`; the receiver
//     delivers only frames that advance the (incarnation, seq) watermark.
//     Duplicates and late reorders are dropped — indistinguishable from
//     loss, which the protocol's retransmission machinery already survives —
//     and a respawned sender's fresh incarnation resets the watermark, so
//     `kill -9` + re-exec does not mute the channel.
//
//     ChannelConfig latency/jitter/bandwidth knobs are accepted but not
//     simulated — the loopback is the real link, so this transport does not
//     use the runtime::Link model the sim and threaded backends share. The
//     loss and duplication knobs are honored with draws of its own: loss,
//     then duplicate, no jitter draw.
//
//     Run-time faults are not this transport's business: sa_node runs its
//     role over an inject::FaultyRuntime wrapping this runtime, and every
//     process arms the same FaultPlan through inject::arm_plan. Partitions
//     therefore drop at the SENDER, in the decorator, and since each
//     process cuts its own outbound side, both directions of a cut hold.
//     There is no receiver-side check: a frame already sent when the window
//     opens still arrives (as on the other backends), and the few
//     milliseconds by which two processes arm the plan apart shift each
//     side's window edges by that much. No iptables required.
//
//   * Clock — a plain ThreadedClock; TimerSkew windows come from the
//     decorator's FaultyClock.
//
//   * Entries in the Transport message log, and the message events an
//     attached observer records, are stamped with CLOCK_REALTIME
//     microseconds, not steady-clock-since-start: the supervisor merges
//     per-process trace files by wall-clock epoch into one cross-process
//     conformance trace. Dropped frames keep their payload in the log; a
//     frame that never reached the kernel counts as a drop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "runtime/threaded_runtime.hpp"
#include "util/rng.hpp"

namespace sa::runtime {

/// CLOCK_REALTIME in microseconds since the Unix epoch — the timestamp
/// domain of cross-process trace merging.
Time wall_clock_us();

struct SocketEndpoint {
  std::string name;
  /// UDP + TCP port on 127.0.0.1. 0 for a local endpoint means "bind an
  /// ephemeral port" (read it back with local_port); 0 for a remote endpoint
  /// means "unknown yet" (fill in with set_endpoint_port before sending).
  std::uint16_t port = 0;
};

struct SocketTransportOptions {
  /// The global node table; NodeId == index, identical in every process.
  std::vector<SocketEndpoint> topology;
  /// Which topology entries THIS process hosts (binds sockets for).
  std::vector<NodeId> local;
  std::uint64_t seed = 42;
  /// Frames at most this large travel as one UDP datagram; larger ones use
  /// the TCP fallback.
  std::size_t max_datagram = 60'000;
};

class SocketTransport final : public Transport {
 public:
  /// Binds every local endpoint (UDP + TCP listener on the same port number,
  /// retrying ephemeral picks until both protocols bind) and starts the
  /// receiver thread. Throws std::runtime_error when a requested port cannot
  /// be bound.
  explicit SocketTransport(SocketTransportOptions options);
  ~SocketTransport() override;

  // --- Transport interface ---------------------------------------------------
  /// Claims the (local) topology entry named `name`; the returned NodeId is
  /// its topology index. Unknown names throw std::invalid_argument.
  NodeId add_node(std::string name, ReceiveHandler handler = nullptr) override;
  void set_handler(NodeId node, ReceiveHandler handler) override;
  const std::string& node_name(NodeId node) const override;
  std::size_t node_count() const override;

  void connect(NodeId from, NodeId to, ChannelConfig config = {}) override;
  bool has_channel(NodeId from, NodeId to) const override;

  bool send(NodeId from, NodeId to, MessagePtr message) override;

  ChannelStats channel_stats(NodeId from, NodeId to) const override;

  // --- socket specifics ------------------------------------------------------
  /// Actual bound port of a local endpoint.
  std::uint16_t local_port(NodeId node) const;
  /// Fills in a remote endpoint's port learned after construction (the
  /// supervisor's endpoint exchange). Sends to a port-0 endpoint drop.
  void set_endpoint_port(NodeId node, std::uint16_t port);

  /// Datagrams that failed frame decoding (garbage, truncation, unknown
  /// codec) and frames dropped by the FIFO watermark, respectively.
  std::uint64_t malformed_frames() const { return malformed_frames_.load(); }
  std::uint64_t stale_frames() const { return stale_frames_.load(); }

  /// Joins the receiver thread and closes every socket. Idempotent; later
  /// sends drop (return false).
  void stop();

  /// Notifies `signal` after every delivery's handler returns (nullptr:
  /// none). `signal` must outlive the receiver thread.
  void notify_deliveries(ProgressSignal* signal) { delivered_.store(signal); }

 private:
  struct ChannelState {
    ChannelConfig config;
    ChannelStats stats;
  };
  /// Receiver-side FIFO watermark for one (from, to) ordered channel.
  struct RecvWatermark {
    std::uint64_t incarnation = 0;
    std::uint64_t seq = 0;
  };
  struct LocalSocket {
    NodeId node = 0;
    int udp_fd = -1;
    int tcp_listen_fd = -1;
  };
  /// One accepted TCP fallback connection mid-reassembly.
  struct TcpConn {
    int fd = -1;
    std::vector<std::uint8_t> buf;
  };

  void bind_local(NodeId node);
  void receiver_loop();
  void handle_datagram(const std::uint8_t* data, std::size_t size);
  /// Consumes complete [u32 length][frame] records from a TCP buffer.
  bool drain_tcp_buffer(TcpConn& conn);

  SocketTransportOptions options_;
  const std::uint64_t incarnation_;

  mutable std::mutex mutex_;
  std::condition_variable handler_cv_;  ///< signalled when in_handler_ clears
  util::Rng rng_;
  std::vector<ReceiveHandler> handlers_;      ///< by NodeId; non-local stay null
  std::vector<bool> in_handler_;              ///< delivery mid-handler (per node)
  std::map<std::pair<NodeId, NodeId>, ChannelState> channels_;
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> send_seq_;
  std::map<std::pair<NodeId, NodeId>, RecvWatermark> recv_seq_;

  std::vector<LocalSocket> local_sockets_;
  int send_fd_ = -1;      ///< shared unbound UDP socket for outbound datagrams
  int wake_pipe_[2] = {-1, -1};  ///< self-pipe to interrupt poll() on stop
  std::thread receiver_;
  std::atomic<bool> stopping_{false};
  std::once_flag stop_once_;

  std::atomic<std::uint64_t> malformed_frames_{0};
  std::atomic<std::uint64_t> stale_frames_{0};
  std::atomic<ProgressSignal*> delivered_{nullptr};
};

struct SocketRuntimeOptions {
  SocketTransportOptions transport;
  std::size_t workers = 2;
  /// wait_until() gives up after this much real time.
  Time wait_cap = seconds(60);
  Time wait_poll_interval = us(200);
};

class SocketRuntime final : public Runtime {
 public:
  explicit SocketRuntime(SocketRuntimeOptions options);
  ~SocketRuntime() override;

  Clock& clock() override { return clock_; }
  Executor& executor() override { return executor_; }
  Transport& transport() override { return transport_; }
  std::string_view backend_name() const override { return "socket"; }

  /// Sleeps; the receiver and timer threads make progress meanwhile.
  void advance(Time duration) override;
  /// Checks `done` after every delivery, executor task and timer callback
  /// until it holds or the real-time cap expires, and at least every
  /// wait_poll_interval, for what other threads change; `max_events` is
  /// meaningless on this backend and ignored.
  bool wait_until(const std::function<bool()>& done,
                  std::size_t max_events = SIZE_MAX) override;

  SocketTransport& socket_transport() { return transport_; }

  /// Stops timers first (no new protocol actions), then the receiver, then
  /// drains the worker pool. Called by the destructor.
  void shutdown();

 private:
  SocketRuntimeOptions options_;
  ThreadedClock clock_;
  ThreadedExecutor executor_;
  SocketTransport transport_;
};

}  // namespace sa::runtime
