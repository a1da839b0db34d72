// perfbench: runs one workload of the repository benchmark and prints its
// result as one JSON line (the last line of stdout).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --self-test
//
// sa_node is taken from beside this binary; map_socket's agents work in
// ./work beside it.
//
// --trace 0 measures the workload from outside and reports the end-to-end
// metrics. --trace 1 reports the per-layer metrics instead: every workload
// runs a traced pass (calls into each layer timed from here), the chosen
// workload twice — untraced, then traced, half the time each — to measure
// what tracing costs, the others briefly.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using pb::Report;
using pb::RunConfig;

struct Workload {
  std::string name;
  Report (*run)(const RunConfig&);
  int setups;  ///< set-up repetitions in an end-to-end run
};

/// In the order a traced run visits them after the chosen one: map_socket
/// early, while this process is small and fork/exec of the agents is cheap;
/// check_pair, the largest heap, last.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table{
      {"map_socket", pb::run_map_socket, 9},
      {"codec_swap", pb::run_codec_swap, 31},
      {"fleet_wave", pb::run_fleet_wave, 5},
      {"check_pair", pb::run_check_pair, 9},
  };
  return table;
}

int usage() {
  std::cerr << "usage: perfbench --workload {codec_swap|fleet_wave|map_socket|check_pair} --seed N "
               "--seconds S --trace 0|1\n"
               "       perfbench --self-test\n";
  return 2;
}

void merge_gates(Report& into, const Report& from) {
  if (!from.correct) into.fail(from.gate);
  into.attempted += from.attempted;
  into.failed += from.failed;
  for (const std::string& note : from.notes) into.notes.push_back(note);
}

/// ops_per_s of an untraced run of `workload` in a fresh process, so that
/// neither side inherits the other's heap; 0 when that run fails.
double untraced_ops_per_s(const std::string& workload, const RunConfig& cfg) {
  std::ostringstream command;
  command << '\'' << std::filesystem::read_symlink("/proc/self/exe").string() << "' --workload "
          << workload << " --seed " << cfg.seed << " --seconds " << cfg.seconds << " --trace 0";
  FILE* pipe = ::popen(command.str().c_str(), "r");
  if (pipe == nullptr) return 0;
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) out.append(buf, n);
  if (::pclose(pipe) != 0) return 0;
  const std::string key = "\"ops_per_s\": {\"value\": ";
  const std::size_t at = out.rfind(key);
  return at == std::string::npos ? 0 : std::strtod(out.c_str() + at + key.size(), nullptr);
}

/// The chosen workload's traced pass runs first, in a fresh process, for half
/// of --seconds; an untraced run of the same length in a child process gives
/// the tracing overhead. The other workloads follow with short traced passes.
Report traced_run(const std::string& chosen, const RunConfig& base) {
  std::vector<const Workload*> order;
  for (const Workload& w : workloads()) {
    if (w.name == chosen) order.insert(order.begin(), &w);
    else order.push_back(&w);
  }
  Report all;
  double overhead_pct = 0;
  for (const Workload* workload : order) {
    RunConfig cfg = base;
    cfg.traced = true;
    cfg.seconds = workload->name == chosen ? base.seconds / 2 : 2;
    cfg.setups = workload->name == chosen ? workload->setups : 3;
    const Report traced = workload->run(cfg);
    merge_gates(all, traced);
    for (const pb::Metric& m : traced.layers) all.layers.push_back(m);
    if (workload->name == chosen) {
      const double plain_ops = untraced_ops_per_s(chosen, cfg);
      const double traced_ops = traced.end_to_end_value("ops_per_s");
      all.check(plain_ops > 0, chosen + ": the untraced comparison run failed");
      overhead_pct = plain_ops > 0 ? (plain_ops - traced_ops) / plain_ops * 100 : 0;
      all.notes.push_back(chosen + ": untraced " + std::to_string(plain_ops) + " ops/s, traced " +
                          std::to_string(traced_ops) + " ops/s");
    }
  }
  all.layers.push_back({"bench.trace_overhead_pct", overhead_pct, "%"});
  return all;
}

// --- self-test ---------------------------------------------------------------

int self_test() {
  int failures = 0, checks = 0;
  const auto expect = [&](bool ok, const char* what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::cerr << "self-test FAILED: " << what << "\n";
    }
  };
  const auto ramp = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(n + 1 - i));  // unsorted
    return v;
  };

  expect(pb::median({3, 1, 2}) == 2, "median of odd count");
  expect(pb::median({4, 1, 3, 2}) == 2.5, "median of even count");

  pb::Tail t = pb::tail_of(ramp(10));
  expect(!t.supported && t.value == 10 && t.samples == 10,
         "10 samples: no tail percentile, max reported");
  t = pb::tail_of(ramp(20));
  expect(t.supported && t.percentile == 50 && t.beyond == 10 && t.value == 10,
         "20 samples: p50 with 10 beyond");
  t = pb::tail_of(ramp(200));
  expect(t.percentile == 95 && t.beyond == 10 && t.value == 190, "200 samples: p95");
  t = pb::tail_of(ramp(999));
  expect(t.percentile == 95, "999 samples: p99 would leave 9 beyond");
  t = pb::tail_of(ramp(1000));
  expect(t.percentile == 99 && t.beyond == 10 && t.value == 990, "1000 samples: p99");
  t = pb::tail_of(ramp(10000));
  expect(t.percentile == 99.9 && t.beyond == 10, "10000 samples: p99.9");
  t = pb::tail_of(ramp(10000), 99);
  expect(t.percentile == 99 && t.beyond == 100, "10000 samples capped at p99");
  t = pb::tail_of(ramp(100), 99);
  expect(t.percentile == 90 && t.beyond == 10, "a cap above what qualifies does not matter");
  expect(pb::describe(pb::tail_of(ramp(1000))).find("n=1000") != std::string::npos,
         "tail description prints its sample count");

  // Peak RSS covers children: a child touching 64 MB must add ~64 MB.
  int ready[2], hold[2];
  if (::pipe(ready) != 0 || ::pipe(hold) != 0) return 1;
  const pid_t child = ::fork();
  if (child == 0) {
    std::vector<char> block(64u << 20);
    for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
    char c = 1;
    (void)!::write(ready[1], &c, 1);
    (void)!::read(hold[0], &c, 1);
    ::_exit(block[4096] == 1 ? 0 : 1);
  }
  char c = 0;
  (void)!::read(ready[0], &c, 1);
  const double alone = pb::peak_rss_mb_with({});
  const double with_child = pb::peak_rss_mb_with({child});
  (void)!::write(hold[1], &c, 1);
  int status = 0;
  ::waitpid(child, &status, 0);
  expect(with_child - alone >= 60, "peak RSS includes a 64 MB child");

  std::cout << "self-test: " << (checks - failures) << "/" << checks << " checks passed\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace = "0";
  RunConfig cfg;
  bool seed_given = false, seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
        seed_given = true;
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
        seconds_given = cfg.seconds > 0;
      } else if (flag == "--trace") {
        trace = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  const auto it = std::find_if(workloads().begin(), workloads().end(),
                               [&](const Workload& w) { return w.name == workload; });
  if (it == workloads().end() || !seed_given || !seconds_given || (trace != "0" && trace != "1")) {
    return usage();
  }
  namespace fs = std::filesystem;
  const fs::path self = fs::read_symlink("/proc/self/exe");
  cfg.sa_node = (self.parent_path() / "sa_node").string();
  cfg.workdir = (self.parent_path() / "work").string();
  fs::create_directories(cfg.workdir);

  Report report;
  std::vector<pb::Metric> metrics;
  try {
    if (trace == "1") {
      report = traced_run(workload, cfg);
      metrics = report.layers;
    } else {
      cfg.setups = it->setups;
      report = it->run(cfg);
      metrics = report.end_to_end;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << ": " << e.what() << "\n";
    return 1;
  }
  for (const std::string& note : report.notes) std::cout << "# " << note << "\n";
  if (!report.correct) {
    std::cout << "# gate failed: " << report.gate << "\n";
    report.failed = report.attempted == 0 ? 1 : report.attempted;
    report.attempted = std::max<std::uint64_t>(report.attempted, 1);
    std::cout << pb::result_json(report, {}) << std::endl;
    return 1;
  }
  std::cout << pb::result_json(report, metrics) << std::endl;
  return 0;
}
