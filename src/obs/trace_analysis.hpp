// Causal trace analysis: critical-path attribution over the span tree.
//
// A causal trace (obs::write_jsonl) links every fleet adaptation into one
// span tree per root epoch: the submitting ticket's span parents the root
// coordinator's epoch span, interior epochs parent the epochs of the
// children they commit through, leaf epochs parent the per-set adaptation
// request spans, and each request span owns its agents' blocked windows.
//
// analyze() rebuilds that tree per region and answers the questions the §7
// scalability story needs:
//
//   * per-root-epoch critical path — the chain of spans whose completions
//     gate the root commit, attributed by tree node. Contributions telescope
//     (node i contributes end_i - end_{i+1}; the deepest node closes against
//     the root's seal time), so a path's contributions sum *exactly* to the
//     root epoch's seal -> complete latency. sa_trace --check enforces this.
//   * blocked-time breakdown by tree level — where §4.3 disruption
//     accumulates as the hierarchy deepens.
//   * p50/p99 latencies per span category (root epoch, epoch, request,
//     ticket).
//
// The input is parsed JSONL — parse_trace() reads an exporter's output, plain
// or region-tagged, through util::parse_json — so the analysis runs offline
// on a trace file without access to the recorder that produced it. The same
// lines feed proto::check_stream, which judges them against the protocol's
// automata and, through analyze(), enforces the telescoping invariant.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.hpp"

namespace sa::obs {

/// One parsed JSONL trace line: either an event or a track_name meta line.
struct TraceLine {
  std::size_t line = 0;  ///< 1-based line number in the parsed text
  /// Why the line breaks the exporter's schema (invalid JSON, unknown kind,
  /// a missing integer field); empty for a well-formed line. analyze() skips
  /// such lines and proto::check_stream reports them.
  std::string error;
  std::optional<std::uint64_t> region;  ///< unset for single-system traces
  bool meta = false;
  // meta == true:
  std::int64_t meta_track = 0;
  std::string meta_name;
  // meta == false:
  Event event;
};

/// Parses one exporter line. Returns std::nullopt for a blank line, and a
/// line with `error` set for one outside the schema.
std::optional<TraceLine> parse_trace_line(std::string_view line);

/// Parses every non-blank line of `jsonl`, stamping line numbers.
std::vector<TraceLine> parse_trace(std::string_view jsonl);

struct CriticalPathNode {
  std::uint64_t span = 0;
  std::string label;       ///< track name when known, else "track<id>"
  std::size_t level = 0;   ///< 0 at the root epoch
  runtime::Time begin = 0;
  runtime::Time end = 0;
  /// Telescoped share of the root latency (virtual us); the per-node answer
  /// to "who gated the commit".
  runtime::Time contribution = 0;
};

struct EpochCriticalPath {
  std::uint64_t region = 0;
  std::uint64_t epoch = 0;  ///< root coordinator epoch number
  std::uint64_t span = 0;   ///< root epoch span id
  runtime::Time sealed = 0;
  runtime::Time completed = 0;
  runtime::Time latency = 0;  ///< completed - sealed
  std::vector<CriticalPathNode> path;  ///< root first
};

struct LatencyStats {
  std::size_t count = 0;
  runtime::Time p50 = 0;
  runtime::Time p99 = 0;
  runtime::Time max = 0;
};

struct TraceAnalysis {
  std::size_t regions = 0;
  std::size_t events = 0;
  std::vector<EpochCriticalPath> epochs;  ///< root epochs, (region, seal, span) order
  /// Blocked time (us) summed over BlockedWindow events, keyed by the tree
  /// level of the owning request span (requests with no causal parent sit at
  /// level 0).
  std::map<std::size_t, double> blocked_us_by_level;
  double blocked_us_total = 0;
  std::map<std::string, LatencyStats> latencies;  ///< by span category
};

TraceAnalysis analyze(const std::vector<TraceLine>& lines);

/// Deterministic JSON rendering of the analysis (single object, two-space
/// indent); ends with a newline.
std::string to_json(const TraceAnalysis& analysis);

}  // namespace sa::obs
