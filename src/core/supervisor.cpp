#include "core/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "proto/wire_codecs.hpp"
#include "runtime/socket_runtime.hpp"  // wall_clock_us
#include "runtime/wire.hpp"
#include "util/json.hpp"

namespace sa::core {

namespace {

namespace fs = std::filesystem;

void sleep_us(runtime::Time t) { std::this_thread::sleep_for(std::chrono::microseconds(t)); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Write-then-rename so concurrent readers never observe a partial file.
void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << content;
  }
  std::rename(tmp.c_str(), path.c_str());
}

}  // namespace

Supervisor::~Supervisor() {
  for (const auto& [pid, name] : live_) ::kill(pid, SIGKILL);
  for (const auto& [pid, name] : live_) ::waitpid(pid, nullptr, 0);
  live_.clear();
}

pid_t Supervisor::spawn(const std::string& program, const std::vector<std::string>& args,
                        const std::string& name, const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("supervisor: fork failed: " + std::string(strerror(errno)));
  if (pid == 0) {
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(program.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(program.c_str(), argv.data());
    _exit(127);
  }
  live_.emplace(pid, name);
  return pid;
}

bool Supervisor::kill9(pid_t pid) {
  if (!live_.contains(pid)) return false;
  return ::kill(pid, SIGKILL) == 0;
}

std::vector<Supervisor::Exit> Supervisor::poll_exits() {
  // Per-pid waits, NOT waitpid(-1): several Supervisors may coexist in one
  // process (sa_fuzz --backend socket --threads N), and a wildcard wait
  // would reap a sibling supervisor's children.
  std::vector<Exit> exits;
  for (auto it = live_.begin(); it != live_.end();) {
    int status = 0;
    const pid_t pid = ::waitpid(it->first, &status, WNOHANG);
    if (pid != it->first) {
      ++it;
      continue;
    }
    Exit exit;
    exit.pid = pid;
    exit.name = it->second;
    if (WIFSIGNALED(status)) {
      exit.signaled = true;
      exit.code = WTERMSIG(status);
    } else {
      exit.code = WEXITSTATUS(status);
    }
    exits.push_back(std::move(exit));
    it = live_.erase(it);
  }
  return exits;
}

bool Supervisor::alive(pid_t pid) const { return live_.contains(pid); }

Supervisor::Exit Supervisor::wait_exit(pid_t pid, runtime::Time timeout) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(timeout);
  while (live_.contains(pid)) {
    for (Exit& exit : poll_exits()) {
      if (exit.pid == pid) return exit;
      // Someone else exited; their Exit is lost to this caller by design
      // (wait_exit is for single-child tests; the run loop uses poll_exits).
    }
    if (std::chrono::steady_clock::now() >= deadline) return Exit{};
    sleep_us(runtime::ms(2));
  }
  return Exit{};
}

std::vector<Supervisor::Exit> Supervisor::terminate_all(runtime::Time grace) {
  for (const auto& [pid, name] : live_) ::kill(pid, SIGTERM);
  std::vector<Exit> exits;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(grace);
  while (!live_.empty() && std::chrono::steady_clock::now() < deadline) {
    for (Exit& exit : poll_exits()) exits.push_back(std::move(exit));
    if (!live_.empty()) sleep_us(runtime::ms(2));
  }
  if (!live_.empty()) {
    for (const auto& [pid, name] : live_) ::kill(pid, SIGKILL);
    while (!live_.empty()) {
      for (Exit& exit : poll_exits()) exits.push_back(std::move(exit));
      if (!live_.empty()) sleep_us(runtime::ms(2));
    }
  }
  return exits;
}

std::string find_sa_node() {
  if (const char* env = std::getenv("SA_NODE"); env != nullptr && *env != '\0') return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    const fs::path candidate = fs::path(buf).parent_path() / "sa_node";
    std::error_code ec;
    if (fs::exists(candidate, ec)) return candidate.string();
  }
  return {};
}

const std::vector<std::string>& distributed_paper_nodes() {
  static const std::vector<std::string> nodes{"manager", "server-agent", "handheld-agent",
                                              "laptop-agent"};
  return nodes;
}

namespace {

std::string topology_json() {
  std::ostringstream out;
  out << "{\n  \"nodes\": [\n";
  const auto& names = distributed_paper_nodes();
  for (std::size_t i = 0; i < names.size(); ++i) {
    out << "    {\"name\": \"" << names[i] << "\", ";
    if (i == 0) {
      out << "\"role\": \"manager\"}";
    } else {
      // Stage assignment mirrors the in-process campaign: the server (the
      // upstream sender) quiesces in stage 0, both clients in stage 1.
      out << "\"role\": \"agent\", \"process\": " << (i - 1) << ", \"stage\": "
          << (i == 1 ? 0 : 1) << '}';
    }
    out << (i + 1 < names.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

struct NodeProc {
  std::string name;
  pid_t pid = -1;
  std::vector<std::string> args;
  std::string log_path;
};

/// Parses one trace JSONL line into a TraceEntry, re-decoding the embedded
/// wire frame so conformance checking sees the typed message.
bool parse_trace_line(const std::string& line, runtime::TraceEntry& entry,
                      std::string& error) {
  if (line.empty()) return false;
  util::JsonValue value;
  try {
    value = util::parse_json(line, "trace line");
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
  const util::JsonValue* t = value.find("t");
  const util::JsonValue* from = value.find("from");
  const util::JsonValue* to = value.find("to");
  const util::JsonValue* type = value.find("type");
  const util::JsonValue* delivered = value.find("delivered");
  const util::JsonValue* frame_hex = value.find("frame");
  if (t == nullptr || from == nullptr || to == nullptr || type == nullptr ||
      delivered == nullptr) {
    error = "trace line missing fields";
    return false;
  }
  entry.time = static_cast<runtime::Time>(t->number);
  entry.from = static_cast<runtime::NodeId>(from->number);
  entry.to = static_cast<runtime::NodeId>(to->number);
  entry.type = type->string;
  entry.delivered = delivered->boolean;
  entry.message = nullptr;
  if (frame_hex != nullptr && !frame_hex->string.empty()) {
    try {
      const std::vector<std::uint8_t> bytes = runtime::from_hex(frame_hex->string);
      entry.message = runtime::decode_frame(bytes.data(), bytes.size()).message;
    } catch (const std::exception& e) {
      error = e.what();
      return false;
    }
  }
  return true;
}

}  // namespace

DistributedReport run_distributed_paper(const DistributedOptions& options) {
  proto::register_wire_codecs();  // trace merge re-decodes frames

  DistributedReport report;
  const auto t_begin = std::chrono::steady_clock::now();
  const auto infra = [&report](const std::string& what) {
    report.infra_ok = false;
    report.infra_errors.push_back(what);
  };

  // --- workdir + inputs ------------------------------------------------------
  std::string workdir = options.workdir;
  if (workdir.empty()) {
    char tmpl[] = "/tmp/sa_dist.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      infra("supervisor: mkdtemp failed");
      return report;
    }
    workdir = tmpl;
  } else {
    std::error_code ec;
    fs::create_directories(workdir, ec);
  }
  report.workdir = workdir;

  const std::string sa_node = options.sa_node.empty() ? find_sa_node() : options.sa_node;
  if (sa_node.empty()) {
    infra("supervisor: sa_node binary not found (set $SA_NODE)");
    return report;
  }

  write_file_atomic(workdir + "/topology.json", topology_json());
  if (!options.plan_json.empty()) {
    write_file_atomic(workdir + "/plan.json", options.plan_json);
  }

  // --- spawn -----------------------------------------------------------------
  Supervisor supervisor;
  const auto& names = distributed_paper_nodes();
  std::map<std::string, NodeProc> procs;
  for (const std::string& name : names) {
    NodeProc proc;
    proc.name = name;
    proc.log_path = workdir + "/" + name + ".log";
    proc.args = {"--topology", workdir + "/topology.json", "--node", name,
                 "--workdir", workdir,
                 "--seed", std::to_string(options.seed),
                 "--scenario", options.scenario,
                 "--max-wait-ms", std::to_string(options.max_wait / 1000)};
    if (!options.plan_json.empty()) {
      proc.args.insert(proc.args.end(), {"--plan", workdir + "/plan.json"});
    }
    if (name == "manager" && !options.manager_fault.empty()) {
      proc.args.insert(proc.args.end(), {"--fault", options.manager_fault});
    }
    try {
      proc.pid = supervisor.spawn(sa_node, proc.args, name, proc.log_path);
    } catch (const std::exception& e) {
      infra(std::string("supervisor: ") + e.what());
      return report;
    }
    procs.emplace(name, std::move(proc));
  }

  // --- endpoint exchange -----------------------------------------------------
  // Every node binds an ephemeral port and writes <name>.port; once all have
  // reported, endpoints.json publishes the full address table and the nodes
  // proceed. A node dying during the exchange fails the run immediately.
  {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
    bool all = false;
    while (!all) {
      all = true;
      for (const std::string& name : names) {
        if (read_file(workdir + "/" + name + ".port").empty()) {
          all = false;
          break;
        }
      }
      if (all) break;
      for (const Supervisor::Exit& exit : supervisor.poll_exits()) {
        infra("supervisor: node " + exit.name + " died during endpoint exchange (" +
              (exit.signaled ? "signal " : "exit ") + std::to_string(exit.code) + ")");
      }
      if (!report.infra_ok || std::chrono::steady_clock::now() >= deadline) {
        if (report.infra_ok) infra("supervisor: endpoint exchange timed out");
        return report;
      }
      sleep_us(runtime::ms(2));
    }
    std::ostringstream endpoints;
    endpoints << "{\n";
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::string port = read_file(workdir + "/" + names[i] + ".port");
      port.erase(std::remove_if(port.begin(), port.end(),
                                [](unsigned char c) { return std::isspace(c); }),
                 port.end());
      endpoints << "  \"" << names[i] << "\": " << port
                << (i + 1 < names.size() ? ",\n" : "\n");
    }
    endpoints << "}\n";
    write_file_atomic(workdir + "/endpoints.json", endpoints.str());
  }

  // --- run loop: crash windows + manager completion --------------------------
  // t0 anchors plan-relative times. Nodes arm their own fault windows (on
  // their FaultyRuntime) relative to when they observe endpoints.json; the
  // supervisor's crash clock is necessarily a few ms offset from each
  // node's — fault windows are stochastic stress, not precision events, and
  // the oracles never depend on exact timing.
  struct CrashAction {
    runtime::Time at = 0;
    bool kill = false;  ///< true = SIGKILL, false = respawn
    std::string node;
  };
  std::vector<CrashAction> actions;
  for (const CrashWindow& window : options.crashes) {
    actions.push_back({window.start, true, window.node});
    actions.push_back({window.end, false, window.node});
  }
  std::stable_sort(actions.begin(), actions.end(),
                   [](const CrashAction& a, const CrashAction& b) { return a.at < b.at; });

  const auto t0 = std::chrono::steady_clock::now();
  const auto hard_deadline = t0 + std::chrono::microseconds(options.max_wait) +
                             std::chrono::seconds(15);
  std::size_t next_action = 0;
  bool manager_done = false;
  while (!manager_done) {
    const runtime::Time elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count();
    while (next_action < actions.size() && actions[next_action].at <= elapsed) {
      const CrashAction& action = actions[next_action++];
      NodeProc& proc = procs.at(action.node);
      if (action.kill) {
        if (supervisor.kill9(proc.pid)) ++report.kills;
      } else if (!supervisor.alive(proc.pid)) {
        try {
          proc.pid = supervisor.spawn(sa_node, proc.args, proc.name, proc.log_path);
          ++report.respawns;
        } catch (const std::exception& e) {
          infra(std::string("supervisor: respawn failed: ") + e.what());
        }
      }
    }

    for (const Supervisor::Exit& exit : supervisor.poll_exits()) {
      if (exit.name == "manager") {
        manager_done = true;
        if (exit.signaled || exit.code != 0) {
          infra(std::string("supervisor: manager exited abnormally (") +
                (exit.signaled ? "signal " : "exit ") + std::to_string(exit.code) + ")");
        }
      } else if (exit.signaled && exit.code == SIGKILL) {
        // Expected: our own crash-window kill. The respawn action revives it.
      } else {
        infra("supervisor: node " + exit.name + " exited unexpectedly (" +
              (exit.signaled ? "signal " : "exit ") + std::to_string(exit.code) + ")");
      }
    }

    if (std::chrono::steady_clock::now() >= hard_deadline) {
      infra("supervisor: manager did not exit within the deadline");
      break;
    }
    if (!manager_done) sleep_us(runtime::ms(2));
  }

  // --- revive crash victims the run outlived ---------------------------------
  // A crash window can still be open when the manager terminates (e.g. it
  // gave up on the dead agent); its respawn action never fired. Re-exec such
  // nodes now so every agent performs §4.4 journal recovery and can write its
  // terminal state file on the SIGTERM below.
  {
    bool revived = false;
    for (const CrashWindow& window : options.crashes) {
      NodeProc& proc = procs.at(window.node);
      if (supervisor.alive(proc.pid)) continue;
      try {
        proc.pid = supervisor.spawn(sa_node, proc.args, proc.name, proc.log_path);
        ++report.respawns;
        revived = true;
      } catch (const std::exception& e) {
        infra(std::string("supervisor: respawn failed: ") + e.what());
      }
    }
    // Let revived nodes get past startup (bind, journal restore, SIGTERM
    // handler installation) before the shutdown signal lands.
    if (revived) sleep_us(runtime::ms(250));
  }

  // --- shutdown agents; they write state + trace files on SIGTERM ------------
  for (const Supervisor::Exit& exit : supervisor.terminate_all(runtime::seconds(5))) {
    if (exit.name == "manager") continue;
    if (exit.signaled && exit.code == SIGKILL) {
      infra("supervisor: node " + exit.name + " ignored SIGTERM and was killed");
    } else if (!exit.signaled && exit.code != 0) {
      infra("supervisor: node " + exit.name + " exited with status " +
            std::to_string(exit.code) + " on shutdown");
    }
  }

  // --- collect artifacts -----------------------------------------------------
  const std::string result_text = read_file(workdir + "/result.json");
  if (result_text.empty()) {
    infra("supervisor: manager produced no result.json");
  } else {
    try {
      const util::JsonValue result = util::parse_json(result_text, "result.json");
      if (const auto* v = result.find("outcome")) report.outcome = v->string;
      if (const auto* v = result.find("final_config_bits")) {
        report.final_config_bits = static_cast<std::uint64_t>(v->number);
      }
      if (const auto* v = result.find("committed_actions")) {
        for (const util::JsonValue& a : v->array) report.committed_actions.push_back(a.string);
      }
      if (const auto* v = result.find("steps_committed")) {
        report.steps_committed = static_cast<std::uint64_t>(v->number);
      }
      if (const auto* v = result.find("step_failures")) {
        report.step_failures = static_cast<std::uint64_t>(v->number);
      }
      if (const auto* v = result.find("total_blocked_us")) {
        report.total_blocked = static_cast<runtime::Time>(v->number);
      }
    } catch (const std::exception& e) {
      infra(std::string("supervisor: malformed result.json: ") + e.what());
    }
  }

  for (std::size_t i = 1; i < names.size(); ++i) {
    const std::string text = read_file(workdir + "/" + names[i] + ".state.json");
    if (text.empty()) {
      infra("supervisor: agent " + names[i] + " produced no state file");
      continue;
    }
    try {
      const util::JsonValue state = util::parse_json(text, "agent state");
      if (const auto* v = state.find("state")) report.agent_states[names[i]] = v->string;
      if (const auto* v = state.find("recoveries")) {
        report.agent_recoveries[names[i]] = static_cast<std::uint64_t>(v->number);
      }
    } catch (const std::exception& e) {
      infra("supervisor: malformed state file for " + names[i] + ": " + e.what());
    }
  }

  // --- merge traces by wall-clock epoch --------------------------------------
  for (const std::string& name : names) {
    std::ifstream in(workdir + "/" + name + ".trace.jsonl");
    std::string line;
    std::uint64_t bad_lines = 0;
    while (std::getline(in, line)) {
      runtime::TraceEntry entry;
      std::string error;
      if (parse_trace_line(line, entry, error)) {
        report.merged_trace.push_back(std::move(entry));
      } else if (!line.empty()) {
        ++bad_lines;
      }
    }
    if (bad_lines != 0) {
      infra("supervisor: " + std::to_string(bad_lines) + " unparseable trace lines from " +
            name);
    }
  }
  std::stable_sort(report.merged_trace.begin(), report.merged_trace.end(),
                   [](const runtime::TraceEntry& a, const runtime::TraceEntry& b) {
                     return a.time < b.time;
                   });

  report.wall_ms = std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                       std::chrono::steady_clock::now() - t_begin)
                       .count();

  if (!options.keep_workdir && report.infra_ok) {
    std::error_code ec;
    fs::remove_all(workdir, ec);
    report.workdir.clear();
  }
  return report;
}

}  // namespace sa::core
