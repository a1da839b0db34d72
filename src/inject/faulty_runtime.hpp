// Fault injection: the one place run-time faults live, on every backend.
//
// FaultyTransport wraps any runtime::Transport (the simulated network, the
// threaded queue transport, the socket transport) and overlays the fault
// state on top of whatever the inner transport's ChannelConfig link model
// already does:
//
//   * extra loss / duplication windows draw from the decorator's own seeded
//     Rng, so fault randomness never perturbs the inner backend's stream
//     (the same seed produces the same base execution with faults layered on);
//   * node / pair partitions drop messages at send time — in-flight messages
//     still arrive, like a real link failure;
//   * crashed nodes additionally lose their in-flight deliveries: the
//     decorator interposes on every receive handler, so a message that the
//     inner transport delivers to a crashed node dies at the doorstep;
//   * the decorator's Transport message log (trace()) records what the
//     protocol actually observed (deliveries that reached the endpoint;
//     drops with delivered=false), which is what the conformance oracle
//     replays.
//
// FaultyClock wraps any runtime::Clock and scales scheduled delays by the
// active skew factor, racing protocol timeouts against message latencies.
// FaultyRuntime bundles both over an inner Runtime so an unmodified
// core::SafeAdaptationSystem, VideoTestbed or sa_node runs the real driver
// stack under injection — the layer the sans-I/O model checker cannot reach.
// arm_plan() turns a FaultPlan into window edges on the inner clock.
//
// Thread safety: every knob may be flipped from any thread while other
// threads send and deliver. The fault state and the Rng sit behind one mutex
// that is never held across a call into the inner transport or a receive
// handler (the message log's own mutex nests inside it as a leaf); the skew
// factor is atomic. With no window open and tracing off, a send or delivery
// takes that mutex once and allocates nothing. set_handler() forwards to the
// inner transport, so detaching a handler (nullptr) keeps the inner backend's
// guarantee: it does not return while that endpoint's handler runs.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "inject/fault_plan.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace sa::inject {

class FaultyClock final : public runtime::Clock {
 public:
  explicit FaultyClock(runtime::Clock& inner) : inner_(&inner) {}

  runtime::Time now() const override { return inner_->now(); }
  runtime::TimerId schedule_at(runtime::Time t, std::function<void()> fn) override;
  runtime::TimerId schedule_after(runtime::Time delay, std::function<void()> fn) override;
  bool cancel(runtime::TimerId id) override { return inner_->cancel(id); }

  /// Skew factor applied to the delay of every schedule while != 1.0.
  void set_skew(double factor) { skew_.store(factor); }
  double skew() const { return skew_.load(); }

  /// Escape hatch for the campaign's own bookkeeping (fault window edges):
  /// schedules on the inner clock so plan times are never themselves skewed.
  runtime::Clock& inner() { return *inner_; }

 private:
  runtime::Clock* inner_;
  std::atomic<double> skew_{1.0};
};

class FaultyTransport final : public runtime::Transport {
 public:
  /// `clock` timestamps the decorator's trace entries (usually the same
  /// clock the inner transport schedules deliveries on).
  FaultyTransport(runtime::Transport& inner, runtime::Clock& clock, std::uint64_t seed)
      : inner_(&inner), clock_(&clock), rng_(seed) {}
  /// Detaches every handler the decorator installed on the inner transport.
  ~FaultyTransport() override;

  FaultyTransport(const FaultyTransport&) = delete;
  FaultyTransport& operator=(const FaultyTransport&) = delete;

  // --- Transport interface (forwarded, with interposition) -------------------
  runtime::NodeId add_node(std::string name, runtime::ReceiveHandler handler = nullptr) override;
  void set_handler(runtime::NodeId node, runtime::ReceiveHandler handler) override;
  const std::string& node_name(runtime::NodeId node) const override {
    return inner_->node_name(node);
  }
  std::size_t node_count() const override { return inner_->node_count(); }

  void connect(runtime::NodeId from, runtime::NodeId to,
               runtime::ChannelConfig config = {}) override {
    inner_->connect(from, to, config);
  }
  bool has_channel(runtime::NodeId from, runtime::NodeId to) const override {
    return inner_->has_channel(from, to);
  }

  bool send(runtime::NodeId from, runtime::NodeId to, runtime::MessagePtr message) override;

  runtime::ChannelStats channel_stats(runtime::NodeId from, runtime::NodeId to) const override {
    return inner_->channel_stats(from, to);
  }

  /// The inner backend reports the message events; the decorator's own drops
  /// and deliveries reach only its log.
  void set_observer(obs::TraceRecorder* recorder, obs::MetricsRegistry* metrics) override {
    inner_->set_observer(recorder, metrics);
  }

  // --- fault windows (driven by arm_plan at plan-event times) ----------------
  /// Every send from or to `node` drops while partitioned.
  void partition_node(runtime::NodeId node, bool partitioned);
  /// Sends between `a` and `b`, in either direction, drop while partitioned.
  void partition_pair(runtime::NodeId a, runtime::NodeId b, bool partitioned);
  /// Extra loss/duplication applied before the message reaches the inner
  /// transport; 0 disables. Validated like every other probability knob.
  void set_extra_loss(double probability);
  void set_extra_duplication(double probability);
  /// Crash: node unreachable AND its in-flight deliveries are dropped.
  /// Clearing it models a restart.
  void set_crashed(runtime::NodeId node, bool crashed);

  struct Stats {
    std::uint64_t dropped_loss = 0;
    std::uint64_t dropped_partition = 0;
    std::uint64_t dropped_crash_send = 0;
    std::uint64_t dropped_crash_delivery = 0;
    std::uint64_t duplicated = 0;
  };
  Stats stats() const;

 private:
  void deliver(runtime::NodeId to, runtime::NodeId from, runtime::MessagePtr message);
  bool partitioned(runtime::NodeId from, runtime::NodeId to) const;

  runtime::Transport* inner_;
  runtime::Clock* clock_;

  mutable std::mutex mutex_;
  util::Rng rng_;
  /// Endpoints whose inner handler is the decorator's interposer, with the
  /// handler it forwards to.
  std::map<runtime::NodeId, runtime::ReceiveHandler> handlers_;
  double extra_loss_ = 0.0;
  double extra_duplication_ = 0.0;
  std::set<runtime::NodeId> partitioned_nodes_;
  std::set<std::pair<runtime::NodeId, runtime::NodeId>> partitioned_pairs_;  ///< (min, max)
  std::set<runtime::NodeId> crashed_;
  Stats stats_;
};

class FaultyRuntime final : public runtime::Runtime {
 public:
  explicit FaultyRuntime(runtime::Runtime& inner, std::uint64_t fault_seed)
      : inner_(&inner),
        clock_(inner.clock()),
        transport_(inner.transport(), inner.clock(), fault_seed),
        name_(std::string("faulty+") + std::string(inner.backend_name())) {}

  runtime::Clock& clock() override { return clock_; }
  runtime::Executor& executor() override { return inner_->executor(); }
  runtime::Transport& transport() override { return transport_; }
  std::string_view backend_name() const override { return name_; }

  void advance(runtime::Time duration) override { inner_->advance(duration); }
  bool wait_until(const std::function<bool()>& done, std::size_t max_events) override {
    return inner_->wait_until(done, max_events);
  }

  FaultyClock& faulty_clock() { return clock_; }
  FaultyTransport& faulty_transport() { return transport_; }
  const FaultyTransport& faulty_transport() const { return transport_; }

 private:
  runtime::Runtime* inner_;
  FaultyClock clock_;
  FaultyTransport transport_;
  std::string name_;
};

/// Where a plan's targeted windows land. FaultEvent.process means what the
/// scenario says it means — an agent process, or a coordinator link.
struct PlanTargets {
  /// The link an event targets: PartitionPair cuts `first <-> second`;
  /// PartitionNode and Crash take out `second`.
  std::function<std::pair<runtime::NodeId, runtime::NodeId>(config::ProcessId)> link;
  /// Opens (true) or closes (false) a FailToReset window on `process`;
  /// null skips FailToReset events.
  std::function<void(config::ProcessId process, bool open)> fail_to_reset;
};

/// Schedules both edges of every window in `plan`, event by event, on the
/// runtime's *inner* (unskewed) clock at the plan's times counted from now,
/// so windows open at their literal plan times even while a TimerSkew window
/// stretches every protocol timer.
void arm_plan(const FaultPlan& plan, FaultyRuntime& frt, const PlanTargets& targets);

}  // namespace sa::inject
