#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pb {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(),
                                         values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2;
}

namespace {

/// 0-based nearest-rank index of percentile p among n sorted samples.
std::size_t rank_index(std::size_t n, double p) {
  // The epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const std::size_t r = rank < 1 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

Tail tail_of(std::vector<double> values, double cap) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > cap) continue;
    const std::size_t index = rank_index(n, p);
    const std::size_t beyond = n - 1 - index;
    if (beyond >= 10) {
      tail.value = values[index];
      tail.percentile = p;
      tail.beyond = beyond;
      tail.supported = true;
      return tail;
    }
  }
  tail.value = values.back();
  return tail;
}

std::string describe(const Tail& tail) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%.1f us at p%g of n=%zu (%zu beyond)%s", tail.value,
                tail.percentile, tail.samples, tail.beyond,
                tail.supported ? "" : " [max: too few samples for a tail]");
  return buf;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double peak_rss_mb_with(const std::vector<pid_t>& children) {
  double total = peak_rss_mb(::getpid());
  for (const pid_t child : children) total += peak_rss_mb(child);
  return total;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(const Report& report, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    out << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace pb
