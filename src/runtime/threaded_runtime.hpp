// ThreadedRuntime: the real-time backend. Runs the same protocol logic the
// simulator runs, but on actual OS threads:
//
//   * Clock     — a steady_clock timer thread firing callbacks in deadline
//                 order (FIFO tie-break on schedule order, like the sim);
//   * Executor  — a worker pool draining one global FIFO task queue, so
//                 tasks *start* in posting order;
//   * Transport — an in-process queue transport: each send asks the
//                 channel's runtime::Link (the link model the simulated
//                 network uses) for an arrival deadline and a possible
//                 duplicate, a timer enqueues the message into the destination
//                 endpoint's mailbox at that deadline, and mailboxes drain
//                 on the worker pool one-at-a-time per endpoint, so each
//                 endpoint's handler runs serialized and in arrival order.
//
// Channel loss and duplication therefore follow the simulated network's draws
// for the same seed; run-time faults (partitions, crashes, loss windows) come
// from inject::FaultyRuntime layered on top, so failure experiments port
// across backends unchanged. Entities whose handlers share state across
// endpoints and timers (manager, agents) serialize themselves with their own
// mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/link.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace sa::runtime {

/// Counts units of progress (a finished task, a handled delivery) and wakes
/// the threads waiting for the count to move: what a real-time wait_until()
/// blocks on between checks of its condition, instead of sleeping blind.
class ProgressSignal {
 public:
  std::uint64_t count() const {
    const std::lock_guard lock(mutex_);
    return count_;
  }
  void notify() {
    {
      const std::lock_guard lock(mutex_);
      ++count_;
    }
    cv_.notify_all();
  }
  /// Blocks until count() differs from `seen` or `until` passes.
  void wait(std::uint64_t seen, std::chrono::steady_clock::time_point until) const {
    std::unique_lock lock(mutex_);
    cv_.wait_until(lock, until, [this, seen] { return count_ != seen; });
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::uint64_t count_ = 0;
};

/// Runs `done` until it holds or `cap` of real time passes, checking it again
/// whenever `progress` moves and at least every `poll_interval`. Returns the
/// last check's result.
bool wait_for_progress(const ProgressSignal& progress, const std::function<bool()>& done,
                       Time cap, Time poll_interval);

class ThreadedClock final : public Clock {
 public:
  ThreadedClock();
  ~ThreadedClock() override;

  Time now() const override;
  TimerId schedule_at(Time t, std::function<void()> fn) override;
  TimerId schedule_after(Time delay, std::function<void()> fn) override;
  bool cancel(TimerId id) override;

  /// Stops the timer thread; pending timers are dropped, and later
  /// schedule calls drop their callback and return 0. Idempotent.
  void stop();

  /// Notifies `signal` after every timer callback returns (nullptr: none).
  /// `signal` must outlive the timer thread.
  void notify_fires(ProgressSignal* signal) { fired_.store(signal); }

 private:
  void run();

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Deadline-ordered pending timers; the id key gives the FIFO tie-break.
  std::map<std::pair<Time, TimerId>, std::function<void()>> timers_;
  std::map<TimerId, Time> deadline_of_;  ///< id -> deadline, for cancel()
  TimerId next_id_ = 1;
  bool stopping_ = false;
  std::atomic<ProgressSignal*> fired_{nullptr};
  std::thread thread_;
};

class ThreadedExecutor final : public Executor {
 public:
  explicit ThreadedExecutor(std::size_t workers);
  ~ThreadedExecutor() override;

  void post(std::function<void()> fn) override;

  /// Finishes queued tasks, then joins the workers. Idempotent.
  void stop();

  /// Notified after every task, since a task is what changes what a waiter
  /// waits for.
  ProgressSignal& progress() { return progress_; }

 private:
  void run();

  ProgressSignal progress_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

class ThreadedTransport final : public Transport {
 public:
  ThreadedTransport(Clock& clock, Executor& executor, std::uint64_t seed);

  NodeId add_node(std::string name, ReceiveHandler handler = nullptr) override;
  void set_handler(NodeId node, ReceiveHandler handler) override;
  const std::string& node_name(NodeId node) const override;
  std::size_t node_count() const override;

  void connect(NodeId from, NodeId to, ChannelConfig config = {}) override;
  bool has_channel(NodeId from, NodeId to) const override;

  bool send(NodeId from, NodeId to, MessagePtr message) override;

  ChannelStats channel_stats(NodeId from, NodeId to) const override;

 private:
  struct Delivery {
    NodeId from;
    MessagePtr message;
  };
  struct Endpoint {
    std::string name;
    ReceiveHandler handler;
    std::deque<Delivery> mailbox;
    bool draining = false;
    /// True while a worker runs this endpoint's handler outside mutex_;
    /// set_handler(node, nullptr) waits on it (see Transport::set_handler).
    bool in_handler = false;
  };

  void enqueue_delivery(NodeId to, NodeId from, MessagePtr message);
  void drain_mailbox(NodeId node);

  Clock* clock_;
  Executor* executor_;
  mutable std::mutex mutex_;
  std::condition_variable handler_cv_;  ///< signalled when in_handler clears
  util::Rng rng_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::map<std::pair<NodeId, NodeId>, Link> channels_;  ///< guarded by mutex_
};

struct ThreadedRuntimeOptions {
  std::size_t workers = 4;
  std::uint64_t seed = 42;
  /// wait_until() gives up after this much real time.
  Time wait_cap = seconds(60);
  Time wait_poll_interval = us(200);
};

class ThreadedRuntime final : public Runtime {
 public:
  using Options = ThreadedRuntimeOptions;

  explicit ThreadedRuntime(Options options = {});
  ~ThreadedRuntime() override;

  Clock& clock() override { return clock_; }
  Executor& executor() override { return executor_; }
  Transport& transport() override { return transport_; }
  std::string_view backend_name() const override { return "threaded"; }

  /// Sleeps; the timer thread and workers make progress meanwhile.
  void advance(Time duration) override;

  /// Checks `done` after every executor task (every delivery drains on the
  /// pool) and timer callback until it holds or the real-time cap expires,
  /// and at least every wait_poll_interval, for what other threads change.
  /// `max_events` is meaningless on this backend and ignored.
  bool wait_until(const std::function<bool()>& done,
                  std::size_t max_events = SIZE_MAX) override;

  /// Stops timers first (no new deliveries), then drains the worker pool.
  /// Called by the destructor; call earlier for a deterministic quiesce.
  void shutdown();

 private:
  Options options_;
  ThreadedClock clock_;
  ThreadedExecutor executor_;
  ThreadedTransport transport_;
};

}  // namespace sa::runtime
