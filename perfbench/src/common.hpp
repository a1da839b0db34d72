// Shared pieces of the repository benchmark: run options, the report every
// workload returns, sample statistics (median, sample-count-aware tail) and
// peak-RSS accounting across the processes that do the work.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;   ///< length of the timed phase
  bool traced = false;   ///< time calls into each layer (per-layer metrics)
  int setups = 5;        ///< set-up repetitions; setup_s is their median
  std::string workdir;   ///< scratch directory for map_socket's processes
  std::string sa_node;   ///< path of the sa_node binary
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::string gate;  ///< first failed correctness gate, empty when all pass
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<std::string> notes;  ///< printed before the result line

  void fail(std::string what) {
    if (correct) gate = std::move(what);
    correct = false;
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  /// Value of a reported end-to-end metric (0 when absent).
  double end_to_end_value(std::string_view name) const {
    for (const Metric& m : end_to_end) {
      if (m.name == name) return m.value;
    }
    return 0;
  }
};

// --- statistics --------------------------------------------------------------

double median(std::vector<double> values);

/// Tail latency that a reader can trust: the highest percentile of the ladder
/// 99.9 / 99 / 95 / 90 / 75 / 50, up to `cap`, that leaves at least ten
/// samples above it. A workload caps the ladder one step below where its
/// sample count would sit near a step boundary, so the chosen percentile does
/// not flip from run to run. With fewer than eleven samples no percentile
/// qualifies; the tail is then the maximum and `supported` is false.
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly above the percentile's rank
  bool supported = false;
};
Tail tail_of(std::vector<double> values, double cap = 99.9);
std::string describe(const Tail& tail);

// --- memory ------------------------------------------------------------------

/// High-water resident set (VmHWM) of `pid`, in MB; 0 when unreadable.
double peak_rss_mb(pid_t pid);
/// VmHWM of this process plus that of every listed live child: the memory
/// high-water of every process doing the work.
double peak_rss_mb_with(const std::vector<pid_t>& children);

// --- output ------------------------------------------------------------------

std::string result_json(const Report& report, const std::vector<Metric>& metrics);

}  // namespace pb
