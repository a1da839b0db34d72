#include "runtime/threaded_runtime.hpp"

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sa::runtime {

// --- ThreadedClock -----------------------------------------------------------

ThreadedClock::ThreadedClock()
    : epoch_(std::chrono::steady_clock::now()), thread_([this] { run(); }) {}

ThreadedClock::~ThreadedClock() { stop(); }

Time ThreadedClock::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TimerId ThreadedClock::schedule_at(Time t, std::function<void()> fn) {
  if (!fn) throw std::invalid_argument("timer callback must be non-empty");
  std::lock_guard lock(mutex_);
  // Match ThreadedExecutor::post's shutdown semantics: work arriving after
  // stop() (e.g. from a worker still draining a mailbox) is dropped rather
  // than inserted as a timer that can never fire.
  if (stopping_) return 0;
  // Real time keeps moving while the caller computes deadlines, so a "past"
  // deadline is not an error here: it fires as soon as possible.
  const TimerId id = next_id_++;
  timers_.emplace(std::make_pair(t, id), std::move(fn));
  deadline_of_.emplace(id, t);
  cv_.notify_all();
  return id;
}

TimerId ThreadedClock::schedule_after(Time delay, std::function<void()> fn) {
  return schedule_at(now() + std::max<Time>(delay, 0), std::move(fn));
}

bool ThreadedClock::cancel(TimerId id) {
  std::lock_guard lock(mutex_);
  const auto it = deadline_of_.find(id);
  if (it == deadline_of_.end()) return false;
  timers_.erase(std::make_pair(it->second, id));
  deadline_of_.erase(it);
  cv_.notify_all();
  return true;
}

void ThreadedClock::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    timers_.clear();
    deadline_of_.clear();
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void ThreadedClock::run() {
#ifdef PR_SET_TIMERSLACK
  // The kernel lets a timed wait overshoot by the thread's timer slack, 50 µs
  // by default, and every protocol timer fires from this thread's waits. A
  // slack of 1 ns makes them fire on time. It is an attribute of this one
  // thread of the process, not a machine setting.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    if (timers_.empty()) {
      cv_.wait(lock);
      continue;
    }
    const auto next = timers_.begin();
    const Time deadline = next->first.first;
    if (now() < deadline) {
      cv_.wait_until(lock, epoch_ + std::chrono::microseconds(deadline));
      continue;  // re-evaluate: an earlier timer or a cancel may have landed
    }
    auto fn = std::move(next->second);
    deadline_of_.erase(next->first.second);
    timers_.erase(next);
    lock.unlock();
    fn();  // entities serialize themselves; see header
    if (ProgressSignal* fired = fired_.load()) fired->notify();
    lock.lock();
  }
}

// --- ThreadedExecutor --------------------------------------------------------

ThreadedExecutor::ThreadedExecutor(std::size_t workers) {
  workers_.reserve(std::max<std::size_t>(workers, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(workers, 1); ++i) {
    workers_.emplace_back([this] { run(); });
  }
}

ThreadedExecutor::~ThreadedExecutor() { stop(); }

void ThreadedExecutor::post(std::function<void()> fn) {
  if (!fn) throw std::invalid_argument("posted task must be non-empty");
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;  // shutting down: new work is dropped
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadedExecutor::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadedExecutor::run() {
  std::unique_lock lock(mutex_);
  while (true) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and drained
    auto fn = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    fn();
    progress_.notify();
    lock.lock();
  }
}

bool wait_for_progress(const ProgressSignal& progress, const std::function<bool()>& done,
                       Time cap, Time poll_interval) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(cap);
  for (;;) {
    // Read the count before checking, so progress made after the check wakes
    // the wait below at once.
    const std::uint64_t seen = progress.count();
    if (done()) return true;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    progress.wait(seen, std::min(deadline, now + std::chrono::microseconds(poll_interval)));
  }
}

// --- ThreadedTransport -------------------------------------------------------

ThreadedTransport::ThreadedTransport(Clock& clock, Executor& executor, std::uint64_t seed)
    : clock_(&clock), executor_(&executor), rng_(seed) {}

NodeId ThreadedTransport::add_node(std::string name, ReceiveHandler handler) {
  std::lock_guard lock(mutex_);
  const NodeId id = static_cast<NodeId>(endpoints_.size());
  auto endpoint = std::make_unique<Endpoint>();
  endpoint->name = std::move(name);
  endpoint->handler = std::move(handler);
  endpoints_.push_back(std::move(endpoint));
  return id;
}

void ThreadedTransport::set_handler(NodeId node, ReceiveHandler handler) {
  std::unique_lock lock(mutex_);
  Endpoint& endpoint = *endpoints_.at(node);
  endpoint.handler = std::move(handler);
  // Detach must not return while a worker is mid-handler: the caller is
  // typically a destructor about to free the object the handler captured.
  if (!endpoint.handler) {
    handler_cv_.wait(lock, [&] { return !endpoint.in_handler; });
  }
}

const std::string& ThreadedTransport::node_name(NodeId node) const {
  std::lock_guard lock(mutex_);
  return endpoints_.at(node)->name;
}

std::size_t ThreadedTransport::node_count() const {
  std::lock_guard lock(mutex_);
  return endpoints_.size();
}

void ThreadedTransport::connect(NodeId from, NodeId to, ChannelConfig config) {
  std::lock_guard lock(mutex_);
  if (from >= endpoints_.size() || to >= endpoints_.size()) {
    throw std::out_of_range("ThreadedTransport::connect: unknown node");
  }
  channels_.insert_or_assign({from, to}, Link(config));
}

bool ThreadedTransport::has_channel(NodeId from, NodeId to) const {
  std::lock_guard lock(mutex_);
  return channels_.contains({from, to});
}

bool ThreadedTransport::send(NodeId from, NodeId to, MessagePtr message) {
  std::lock_guard lock(mutex_);
  const auto it = channels_.find({from, to});
  if (it == channels_.end()) throw_no_channel(endpoints_.at(from)->name, endpoints_.at(to)->name);
  const Time now = clock_->now();
  const LinkOutcome out = it->second.send(now, message->size_bytes(), rng_);
  if (!out.accepted) {
    report(MessageEvent::Dropped, now, from, to, message);
    return false;
  }
  report(MessageEvent::Sent, now, from, to, message);
  if (out.copy_arrival >= 0) report(MessageEvent::Duplicated, now, from, to, message);

  // Schedule while still holding mutex_: two racing sends on a FIFO channel
  // can be clamped to the same arrival time, and only the (deadline, id)
  // tie-break keeps them ordered — so the clock must hand out ids in clamp
  // order. ThreadedClock::schedule_at takes only its own lock, so there is
  // no lock-order cycle (the timer thread calls back without holding it).
  clock_->schedule_at(out.arrival,
                      [this, to, from, message] { enqueue_delivery(to, from, message); });
  if (out.copy_arrival >= 0) {
    clock_->schedule_at(out.copy_arrival,
                        [this, to, from, message] { enqueue_delivery(to, from, message); });
  }
  return true;
}

void ThreadedTransport::enqueue_delivery(NodeId to, NodeId from, MessagePtr message) {
  bool start_drain = false;
  {
    std::lock_guard lock(mutex_);
    Endpoint& endpoint = *endpoints_.at(to);
    endpoint.mailbox.push_back(Delivery{from, std::move(message)});
    if (!endpoint.draining) {
      endpoint.draining = true;
      start_drain = true;
    }
  }
  if (start_drain) executor_->post([this, to] { drain_mailbox(to); });
}

void ThreadedTransport::drain_mailbox(NodeId node) {
  std::unique_lock lock(mutex_);
  // The Endpoint object is stable across unlocks (endpoints_ holds owning
  // pointers and nodes are never removed), even if the vector grows.
  Endpoint& endpoint = *endpoints_.at(node);
  while (!endpoint.mailbox.empty()) {
    Delivery delivery = std::move(endpoint.mailbox.front());
    endpoint.mailbox.pop_front();
    ReceiveHandler handler = endpoint.handler;
    report(MessageEvent::Delivered, clock_->now(), delivery.from, node, delivery.message);
    if (handler) {
      // Run the handler unlocked (it re-enters the transport to send), but
      // flag the window so a concurrent detach waits instead of letting its
      // caller free the handler's captures mid-call.
      endpoint.in_handler = true;
      lock.unlock();
      handler(delivery.from, std::move(delivery.message));
      lock.lock();
      endpoint.in_handler = false;
      handler_cv_.notify_all();
    }
  }
  endpoint.draining = false;
}

ChannelStats ThreadedTransport::channel_stats(NodeId from, NodeId to) const {
  std::lock_guard lock(mutex_);
  const auto it = channels_.find({from, to});
  if (it == channels_.end()) throw_no_channel(endpoints_.at(from)->name, endpoints_.at(to)->name);
  return it->second.stats();
}

// --- ThreadedRuntime ---------------------------------------------------------

ThreadedRuntime::ThreadedRuntime(Options options)
    : options_(options),
      executor_(options.workers),
      transport_(clock_, executor_, options.seed) {
  clock_.notify_fires(&executor_.progress());
}

ThreadedRuntime::~ThreadedRuntime() { shutdown(); }

void ThreadedRuntime::shutdown() {
  clock_.stop();      // no further timer fires => no new transport deliveries
  executor_.stop();   // drain queued mailbox work, then join the pool
}

void ThreadedRuntime::advance(Time duration) {
  std::this_thread::sleep_for(std::chrono::microseconds(std::max<Time>(duration, 0)));
}

bool ThreadedRuntime::wait_until(const std::function<bool()>& done, std::size_t /*max_events*/) {
  return wait_for_progress(executor_.progress(), done, options_.wait_cap,
                           options_.wait_poll_interval);
}

}  // namespace sa::runtime
