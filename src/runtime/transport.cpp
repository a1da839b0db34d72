#include "runtime/transport.hpp"

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"

namespace sa::runtime {

namespace {

struct EventInfo {
  obs::EventKind kind;
  const char* label;   ///< the sa_messages_total `event` label
  const char* detail;  ///< the recorded event's detail
};

/// Indexed by Transport::MessageEvent.
constexpr EventInfo kEvents[] = {
    {obs::EventKind::MessageSent, "sent", ""},
    {obs::EventKind::MessageDuplicated, "duplicated", ""},
    {obs::EventKind::MessageDropped, "dropped", "loss"},
    {obs::EventKind::MessageDelivered, "delivered", ""},
};

}  // namespace

void Transport::report_slow(MessageEvent event, Time time, NodeId from, NodeId to,
                            const MessagePtr& message) {
  const auto index = static_cast<std::size_t>(event);
  const bool dropped = event == MessageEvent::Dropped;
  std::string type = message->type_name();
  std::lock_guard lock(mutex_);
  if ((dropped || event == MessageEvent::Delivered) && tracing_.load(std::memory_order_relaxed)) {
    const bool keep_payload = !dropped || keep_dropped_payloads_;
    trace_.push_back(TraceEntry{time, from, to, type, !dropped, keep_payload ? message : nullptr});
  }
  if (metrics_ != nullptr) {
    auto& counters = counters_[index];
    auto it = counters.find(type);
    if (it == counters.end()) {
      obs::Counter& counter = metrics_->counter(
          "sa_messages_total", {{"event", kEvents[index].label}, {"type", type}},
          "Transport messages by lifecycle event and message type");
      it = counters.emplace(type, &counter).first;
    }
    it->second->inc();
  }
  if (recorder_ != nullptr && recorder_->enabled()) {
    obs::Event e;
    e.time = time;
    e.kind = kEvents[index].kind;
    e.from = from;
    e.to = to;
    e.name = std::move(type);
    e.detail = kEvents[index].detail;
    recorder_->record(std::move(e));
  }
}

}  // namespace sa::runtime
