// MessageObserver: the per-transport instrumentation helper behind
// Transport::set_observer().
//
// Both backends embed one by value and call on_sent / on_delivered /
// on_dropped / on_duplicated from their send and delivery paths. The helper
// turns each call into a typed message event (only when the recorder is
// enabled) and an sa_messages_total increment labeled by event and message
// type, caching the Counter* per (event, type) so the steady-state cost is a
// map-free atomic increment.
//
// Not internally synchronized: the owning transport serializes calls (the
// simulated network is single-threaded; ThreadedTransport calls under its
// own mutex).
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"

namespace sa::obs {

class MessageObserver {
 public:
  /// Null pointers detach (and drop the counter cache, which points into the
  /// previous registry).
  void attach(TraceRecorder* recorder, MetricsRegistry* metrics);

  void on_sent(runtime::Time t, runtime::NodeId from, runtime::NodeId to,
               const std::string& type);
  void on_delivered(runtime::Time t, runtime::NodeId from, runtime::NodeId to,
                    const std::string& type);
  /// Recorded with detail "loss": the only drop a backend makes itself.
  void on_dropped(runtime::Time t, runtime::NodeId from, runtime::NodeId to,
                  const std::string& type);
  void on_duplicated(runtime::Time t, runtime::NodeId from, runtime::NodeId to,
                     const std::string& type);

 private:
  void record(EventKind kind, runtime::Time t, runtime::NodeId from, runtime::NodeId to,
              const std::string& type, std::string_view detail);
  Counter* counter_for(std::string_view event, const std::string& type);

  TraceRecorder* recorder_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  std::map<std::pair<std::string, std::string>, Counter*> counters_;
};

}  // namespace sa::obs
