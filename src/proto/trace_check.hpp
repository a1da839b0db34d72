// The recorder-level trace checker, shared by `sa_trace --check`, the fleet
// bench and the tests. Where check_trace() (conformance.hpp) replays the
// transport's message log, check_stream() judges the obs::TraceRecorder's
// JSONL as parsed by obs::parse_trace(). Per stream (a region of a fleet
// trace, or a whole single-system trace): lines fit the exporter's schema;
// meta lines come first; seq is dense and t never goes back; message and
// timer events carry their fields; manager_phase / agent_state events chain
// per track and follow Fig. 2 / Fig. 1 (states.hpp); coordinator and epoch
// events carry a track, and epochs go opened -> sealed -> completed per
// track without interleaving; tickets, flow links and blocked windows carry
// their spans and durations; every parent span resolves; at the end every
// manager and agent is running and no epoch is open. Over the whole trace:
// it has events, every root epoch's critical path (obs::analyze) sums to its
// latency, and a region-tagged trace has a root epoch.
#pragma once

#include <string>
#include <vector>

#include "obs/trace_analysis.hpp"

namespace sa::proto {

/// One description per violation, prefixed with the offending line number
/// (or the region, for end-of-stream rules); empty for a conforming trace.
std::vector<std::string> check_stream(const std::vector<obs::TraceLine>& lines);

}  // namespace sa::proto
