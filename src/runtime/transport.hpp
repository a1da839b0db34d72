// Transport: named endpoints connected by directed channels whose
// ChannelConfig models the link — latency, jitter, loss, duplication and
// bandwidth.
//
// This is the abstraction the protocol (manager/agent), the video testbed,
// and the experiment harnesses send messages through. Backends:
// sa::sim::Network (virtual-time discrete-event delivery), ThreadedRuntime's
// in-process queue transport (real threads, per-endpoint FIFO mailboxes) and
// SocketTransport (real processes over loopback sockets). The two backends
// that simulate the link share one model of it, runtime::Link (link.hpp).
//
// The delivered-message log (set_tracing / trace / clear_trace) is
// implemented once, here; backends append to it through record().
//
// Run-time faults — partitions, crashes, loss and duplication windows — are
// not part of this interface: inject::FaultyTransport decorates any backend
// with them, so one implementation serves all three.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/time.hpp"

namespace sa::obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace sa::obs

namespace sa::runtime {

using NodeId = std::uint32_t;

/// A handler invoked when a message reaches an endpoint: (sender, message).
using ReceiveHandler = std::function<void(NodeId, MessagePtr)>;

struct ChannelConfig {
  Time latency = ms(1);     ///< base one-way delay
  Time jitter = 0;          ///< uniform extra delay in [0, jitter]
  double loss_probability = 0.0;
  bool fifo = true;         ///< enforce in-order delivery despite jitter
  /// Probability that an accepted message is delivered twice (retransmission
  /// artifacts); protocol participants must deduplicate.
  double duplicate_probability = 0.0;
  /// Link capacity in bytes/second; 0 = unlimited. Transmissions serialize:
  /// a message must finish its size_bytes()/bandwidth transmission before the
  /// next one starts, so sustained overload builds queueing delay.
  std::uint64_t bytes_per_second = 0;
};

/// Validates a probability-valued fault knob (loss / duplication) before it
/// reaches a channel. NaN and values outside [0, 1] throw
/// std::invalid_argument; 0.0 and 1.0 are accepted. Every transport backend
/// funnels its knobs through this so the sim and threaded transports agree on
/// boundary behavior, and a fuzz campaign cannot silently install a plan
/// whose "30% loss" was actually NaN (NaN compares false everywhere, so a
/// NaN probability would quietly disable the fault).
inline double checked_probability(double p, const char* what) {
  if (std::isnan(p) || p < 0.0 || p > 1.0) {
    throw std::invalid_argument(std::string(what) + " must be a probability in [0, 1], got " +
                                std::to_string(p));
  }
  return p;
}

/// Validates a duration-valued channel knob (latency / jitter): negative
/// values throw std::invalid_argument.
inline Time checked_duration(Time t, const char* what) {
  if (t < 0) {
    throw std::invalid_argument(std::string(what) + " must be non-negative, got " +
                                std::to_string(t));
  }
  return t;
}

/// Validates every stochastic field of a channel config in one place;
/// runtime::Link calls this when a channel is created.
inline const ChannelConfig& checked_channel_config(const ChannelConfig& config) {
  checked_duration(config.latency, "channel latency");
  checked_duration(config.jitter, "channel jitter");
  checked_probability(config.loss_probability, "channel loss_probability");
  checked_probability(config.duplicate_probability, "channel duplicate_probability");
  return config;
}

struct ChannelStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t dropped_loss = 0;
};

/// Trace record of a delivered (or dropped) message, for protocol tests and
/// conformance checking. `message` keeps the payload alive so checkers can
/// downcast to concrete message types.
struct TraceEntry {
  Time time = 0;
  NodeId from = 0;
  NodeId to = 0;
  std::string type;
  bool delivered = true;
  MessagePtr message;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers an endpoint; `name` appears in traces. Handler may be bound
  /// later via set_handler (endpoints are often created before their owners).
  virtual NodeId add_node(std::string name, ReceiveHandler handler = nullptr) = 0;
  /// Rebinds (or, with nullptr, detaches) the endpoint's receive handler.
  /// Detaching is a synchronization point: it must not return while a
  /// delivery is mid-handler on another thread, so a driver destructor that
  /// detaches first can safely free the object the handler captured.
  /// Detaching from inside the endpoint's own handler is undefined.
  virtual void set_handler(NodeId node, ReceiveHandler handler) = 0;
  virtual const std::string& node_name(NodeId node) const = 0;
  virtual std::size_t node_count() const = 0;

  /// Creates (or reconfigures) the directed channel from -> to.
  virtual void connect(NodeId from, NodeId to, ChannelConfig config = {}) = 0;
  /// Both directions with the same config.
  void connect_bidirectional(NodeId a, NodeId b, ChannelConfig config = {}) {
    connect(a, b, config);
    connect(b, a, config);
  }
  virtual bool has_channel(NodeId from, NodeId to) const = 0;

  /// Sends over the from->to channel; throws std::out_of_range when no such
  /// channel exists. Returns false if the channel dropped the message.
  virtual bool send(NodeId from, NodeId to, MessagePtr message) = 0;

  /// The from->to channel's counters; throws std::out_of_range naming the
  /// channel when no such channel exists.
  virtual ChannelStats channel_stats(NodeId from, NodeId to) const = 0;

  /// Enables trace recording; entries accumulate in trace(). Under the
  /// threaded and socket backends, read trace() only once the system is
  /// quiescent (no sends or deliveries in flight).
  void set_tracing(bool enabled) { tracing_.store(enabled); }
  const std::vector<TraceEntry>& trace() const { return trace_; }
  void clear_trace() {
    std::lock_guard lock(trace_mutex_);
    trace_.clear();
  }

  /// Wires the observability layer into this transport: every send / deliver
  /// / drop / duplicate becomes a typed event (when the recorder is enabled)
  /// and a labeled sa_messages_total increment. Null pointers detach. The
  /// default does nothing so transports without instrumentation keep working.
  virtual void set_observer(obs::TraceRecorder* /*recorder*/, obs::MetricsRegistry* /*metrics*/) {}

 protected:
  /// Appends an entry for `message` to the log while tracing is on; a no-op
  /// otherwise. The entry keeps the payload only when `keep_payload` is set.
  /// Safe from any thread: the log's mutex is a leaf, never held across a
  /// call out of this function.
  void record(Time time, NodeId from, NodeId to, const MessagePtr& message, bool delivered,
              bool keep_payload) {
    if (!tracing_.load()) return;
    TraceEntry entry{time, from, to, message->type_name(), delivered,
                     keep_payload ? message : nullptr};
    std::lock_guard lock(trace_mutex_);
    trace_.push_back(std::move(entry));
  }

  /// The error send() and channel_stats() raise for a missing channel.
  [[noreturn]] static void throw_no_channel(const std::string& from, const std::string& to) {
    throw std::out_of_range("no channel " + from + " -> " + to);
  }

 private:
  std::atomic<bool> tracing_{false};
  std::mutex trace_mutex_;
  std::vector<TraceEntry> trace_;
};

}  // namespace sa::runtime
