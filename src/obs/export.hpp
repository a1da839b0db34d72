// Exporters for the observability layer:
//
//   * write_jsonl        — one JSON object per event, in append (seq) order.
//                          On SimRuntime the stream is byte-identical across
//                          same-seed runs; proto::check_stream validates
//                          the schema and the Fig. 1 / Fig. 2 state machines.
//   * write_chrome_trace — Chrome trace_event JSON: one track per process
//                          plus the manager (phase/state slices), async spans
//                          for adaptations and steps, instants for messages
//                          and timers. Opens directly in chrome://tracing or
//                          Perfetto.
//   * write_prometheus   — text exposition (counter/gauge/histogram with
//                          cumulative le buckets) of a metrics snapshot.
#pragma once

#include <iosfwd>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"

namespace sa::obs {

void write_jsonl(const TraceRecorder& recorder, std::ostream& out);
/// Fleet variant: every line (meta and event) leads with `"region":<region>`,
/// so per-region traces can be concatenated into one file and validated /
/// analysed per region.
void write_jsonl(const TraceRecorder& recorder, std::ostream& out, std::uint64_t region);
/// Serializes an already-merged event list (e.g. TraceRecorder::tail(n) for
/// post-mortem dumps) with the same per-event schema, no meta lines.
void write_jsonl(const std::vector<Event>& events, std::ostream& out);
void write_chrome_trace(const TraceRecorder& recorder, std::ostream& out);
void write_prometheus(const MetricsRegistry& metrics, std::ostream& out);

/// JSON string escaping shared by the exporters (quotes, backslashes,
/// control characters).
std::string json_escape(std::string_view text);

}  // namespace sa::obs
