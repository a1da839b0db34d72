// sa_trace — causal trace analysis for safe-adaptation JSONL traces.
//
// Ingests a trace produced by `sa_run --trace-out` (single system) or
// `sa_run --fleet --trace-out` (region-tagged fleet trace) and emits a JSON
// report: per-root-epoch critical paths attributed by tree node, blocked-time
// breakdown by hierarchy level, and p50/p99 span latencies.
//
//   sa_trace trace.jsonl                 analysis JSON on stdout
//   sa_trace --check trace.jsonl         also check the trace with
//                                        proto::check_stream: schema, dense
//                                        seq, Fig. 1 / Fig. 2 chains and
//                                        edges, epoch order, causal edges,
//                                        and the telescoping invariant (every
//                                        root epoch's critical-path
//                                        contributions sum exactly to its
//                                        seal -> complete latency); each
//                                        violation goes to stderr, exit 1
//   cat trace.jsonl | sa_trace -         read from stdin
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "obs/trace_analysis.hpp"
#include "proto/trace_check.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: sa_trace [--check] <trace.jsonl | ->\n"
               "  --check   check the trace against the protocol's automata and\n"
               "            the critical-path invariant (exit 1 on violation)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      usage();
      return 0;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (path == nullptr) return usage();

  std::ifstream file;
  std::istream* in = &std::cin;
  if (std::strcmp(path, "-") != 0) {
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "sa_trace: cannot open %s\n", path);
      return 2;
    }
    in = &file;
  }

  const std::string text{std::istreambuf_iterator<char>(*in), std::istreambuf_iterator<char>()};
  const std::vector<sa::obs::TraceLine> lines = sa::obs::parse_trace(text);
  std::size_t skipped = 0;
  for (const sa::obs::TraceLine& line : lines) skipped += line.error.empty() ? 0 : 1;
  if (skipped == lines.size()) {
    std::fprintf(stderr, "sa_trace: no trace lines in %s\n", path);
    return 2;
  }
  if (skipped != 0 && !check) {
    std::fprintf(stderr, "sa_trace: skipped %zu unparseable line(s)\n", skipped);
  }

  const sa::obs::TraceAnalysis analysis = sa::obs::analyze(lines);
  std::cout << sa::obs::to_json(analysis);

  if (check) {
    const std::vector<std::string> violations = sa::proto::check_stream(lines);
    for (const std::string& violation : violations) {
      std::fprintf(stderr, "sa_trace: %s\n", violation.c_str());
    }
    if (!violations.empty()) return 1;
    std::fprintf(stderr, "sa_trace: trace OK: %zu event(s), %zu root epoch(s)\n",
                 analysis.events, analysis.epochs.size());
  }
  return 0;
}
