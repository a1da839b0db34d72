// sa_node: one process of the distributed deployment (see core/supervisor.hpp).
//
// Run with --node NAME against a topology file; the process binds its socket
// endpoint, publishes the port, waits for the supervisor's endpoints.json,
// and then plays exactly one protocol role over SocketTransport:
//
//   manager  the paper's §5 adaptation request (direct AdaptationManager over
//            the socket backend), writing result.json when it terminates;
//   agent    an AdaptationAgent wrapping a stub AdaptableProcess, journaling
//            its §4.4 recovery state (last completed step + blocked time) to
//            disk on every change so a kill -9 + re-exec restores it, and
//            writing its terminal state file on SIGTERM.
//
// Every role runs over an inject::FaultyRuntime wrapping the SocketRuntime,
// and FaultPlan windows (--plan) are armed on it with inject::arm_plan, the
// same function the simulated campaign uses: partitions/loss/duplication
// drop at the sender in the decorator, TimerSkew scales the real timers,
// FailToReset flips the owning agent. Crash events are executed by the
// supervisor as real kill -9 / re-exec, not here.
//
// Exit codes: 0 clean (agents: after SIGTERM), 2 usage, 3 setup failure.
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/explorer.hpp"  // fault_from_string
#include "core/paper_scenario.hpp"
#include "inject/fault_plan.hpp"
#include "inject/faulty_runtime.hpp"
#include "obs/export.hpp"  // json_escape
#include "proto/agent.hpp"
#include "proto/manager.hpp"
#include "proto/wire_codecs.hpp"
#include "runtime/socket_runtime.hpp"
#include "runtime/wire.hpp"
#include "util/json.hpp"

namespace {

using sa::runtime::NodeId;
using sa::runtime::Time;

constexpr NodeId kManagerNode = 0;
/// Seeds the fault decorator apart from the socket transport's own stream.
constexpr std::uint64_t kFaultStream = 0xbf58476d1ce4e5b9ULL;

volatile sig_atomic_t g_sigterm = 0;
void on_sigterm(int) { g_sigterm = 1; }

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --topology FILE --node NAME --workdir DIR [options]\n"
               "  --seed S          rng seed shared with the supervisor (default 42)\n"
               "  --scenario NAME   paper (default; the only distributed scenario)\n"
               "  --plan FILE       fault plan JSON; Crash events are ignored here\n"
               "  --fault NAME      manager mutation gate (manager role only)\n"
               "  --max-wait-ms N   manager: cap on the adaptation (default 60000)\n";
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << content;
  }
  std::rename(tmp.c_str(), path.c_str());
}

void sleep_us(Time t) { std::this_thread::sleep_for(std::chrono::microseconds(t)); }

struct NodeInfo {
  std::string name;
  std::string role;  ///< "manager" | "agent"
  sa::config::ProcessId process = 0;
  int stage = 0;
};

std::vector<NodeInfo> parse_topology(const std::string& text) {
  const sa::util::JsonValue doc = sa::util::parse_json(text, "topology JSON");
  const sa::util::JsonValue* nodes = doc.find("nodes");
  if (nodes == nullptr) throw std::runtime_error("topology JSON: missing \"nodes\"");
  std::vector<NodeInfo> out;
  for (const sa::util::JsonValue& n : nodes->array) {
    NodeInfo info;
    if (const auto* v = n.find("name")) info.name = v->string;
    if (const auto* v = n.find("role")) info.role = v->string;
    if (const auto* v = n.find("process")) {
      info.process = static_cast<sa::config::ProcessId>(v->number);
    }
    if (const auto* v = n.find("stage")) info.stage = static_cast<int>(v->number);
    if (info.name.empty() || info.role.empty()) {
      throw std::runtime_error("topology JSON: node missing name/role");
    }
    out.push_back(std::move(info));
  }
  if (out.empty()) throw std::runtime_error("topology JSON: no nodes");
  return out;
}

/// endpoints.json: {"<name>": port, ...}. Returns empty on missing file.
std::map<std::string, std::uint16_t> parse_endpoints(const std::string& text) {
  std::map<std::string, std::uint16_t> out;
  if (text.empty()) return out;
  const sa::util::JsonValue doc = sa::util::parse_json(text, "endpoints JSON");
  for (const auto& [name, value] : doc.object) {
    out[name] = static_cast<std::uint16_t>(value.number);
  }
  return out;
}

/// Arms the plan's windows on this process's fault decorator, at times
/// counted from now (each node arms right after learning the endpoints; see
/// supervisor.cpp on the small cross-process offset this implies). Agent
/// process p is node p + 1 and the manager node 0. `agent` binds FailToReset
/// to the one process that owns it; the manager role passes null.
void arm(sa::inject::FaultyRuntime& frt, const sa::inject::FaultPlan& plan,
         sa::proto::AdaptationAgent* agent, sa::config::ProcessId my_process) {
  sa::inject::PlanTargets targets;
  targets.link = [](sa::config::ProcessId process) {
    return std::pair<NodeId, NodeId>{kManagerNode, static_cast<NodeId>(process) + 1};
  };
  if (agent != nullptr) {
    targets.fail_to_reset = [agent, my_process](sa::config::ProcessId process, bool open) {
      if (process == my_process) agent->set_fail_to_reset(open);
    };
  }
  sa::inject::arm_plan(plan, frt, targets);
}

/// Serializes the transport trace as one JSONL line per entry, each carrying
/// the re-encoded wire frame in hex so the supervisor can merge and re-decode
/// across processes. Appends: a respawned agent extends its own file.
void write_trace(const std::string& path, sa::runtime::SocketTransport& transport) {
  std::ofstream out(path, std::ios::app);
  for (const sa::runtime::TraceEntry& entry : transport.trace()) {
    std::string frame;
    if (entry.message) {
      try {
        const std::vector<std::uint8_t> bytes =
            sa::runtime::encode_frame(entry.from, entry.to, 0, 0, *entry.message);
        frame = sa::runtime::to_hex(bytes.data(), bytes.size());
      } catch (const std::exception&) {
        // No codec for this type (not a control message); merge without it.
      }
    }
    out << "{\"t\":" << entry.time << ",\"from\":" << entry.from << ",\"to\":" << entry.to
        << ",\"type\":\"" << sa::obs::json_escape(entry.type)
        << "\",\"delivered\":" << (entry.delivered ? "true" : "false") << ",\"frame\":\""
        << frame << "\"}\n";
  }
}

struct Args {
  std::string topology;
  std::string node;
  std::string workdir;
  std::uint64_t seed = 42;
  std::string scenario = "paper";
  std::string plan_path;
  std::string fault;
  Time max_wait = sa::runtime::seconds(60);
};

// ---------------------------------------------------------------------------
// agent role

std::string journal_json(const std::optional<sa::proto::StepRef>& step, Time blocked,
                         std::uint64_t recoveries) {
  std::ostringstream out;
  out << "{\"last_completed\":";
  if (step) {
    out << "{\"request_id\":" << step->request_id << ",\"plan\":" << step->plan
        << ",\"step_index\":" << step->step_index << ",\"attempt\":" << step->attempt << '}';
  } else {
    out << "null";
  }
  out << ",\"total_blocked_us\":" << blocked << ",\"recoveries\":" << recoveries << "}\n";
  return out.str();
}

int run_agent(const Args& args, sa::inject::FaultyRuntime& frt,
              sa::runtime::SocketTransport& transport, NodeId my_id, const NodeInfo& me,
              const sa::inject::FaultPlan& plan) {
  frt.transport().connect_bidirectional(my_id, kManagerNode);

  sa::proto::ObedientProcess process;
  sa::proto::AdaptationAgent agent(frt.clock(), frt.transport(), my_id, kManagerNode, process);

  // §4.4 crash recovery: a re-exec'd incarnation restores the journaled
  // re-ack key before any manager retransmission can reach it.
  const std::string journal_path = args.workdir + "/" + me.name + ".journal.json";
  std::uint64_t recoveries = 0;
  std::optional<sa::proto::StepRef> restored_step;
  Time restored_blocked = 0;
  if (const std::string text = read_file(journal_path); !text.empty()) {
    try {
      const sa::util::JsonValue journal = sa::util::parse_json(text, "agent journal");
      if (const auto* v = journal.find("last_completed");
          v != nullptr && v->type == sa::util::JsonValue::Type::Object) {
        sa::proto::StepRef step;
        if (const auto* f = v->find("request_id")) step.request_id = static_cast<std::uint64_t>(f->number);
        if (const auto* f = v->find("plan")) step.plan = static_cast<std::uint32_t>(f->number);
        if (const auto* f = v->find("step_index")) step.step_index = static_cast<std::uint32_t>(f->number);
        if (const auto* f = v->find("attempt")) step.attempt = static_cast<std::uint32_t>(f->number);
        restored_step = step;
      }
      if (const auto* v = journal.find("total_blocked_us")) {
        restored_blocked = static_cast<Time>(v->number);
      }
      if (const auto* v = journal.find("recoveries")) {
        recoveries = static_cast<std::uint64_t>(v->number) + 1;
      } else {
        recoveries = 1;
      }
      agent.restore_recovery(restored_step, restored_blocked);
    } catch (const std::exception& e) {
      std::cerr << me.name << ": discarding corrupt journal: " << e.what() << "\n";
    }
  }
  write_file_atomic(journal_path, journal_json(restored_step, restored_blocked, recoveries));

  arm(frt, plan, &agent, me.process);

  // Journal poll loop: rewrite on every recovery-state change, until SIGTERM.
  std::optional<sa::proto::StepRef> last_step = restored_step;
  Time last_blocked = restored_blocked;
  while (g_sigterm == 0) {
    sleep_us(sa::runtime::ms(1));
    const std::optional<sa::proto::StepRef> step = agent.last_completed();
    const Time blocked = agent.stats().total_blocked;
    if (step != last_step || blocked != last_blocked) {
      write_file_atomic(journal_path, journal_json(step, blocked, recoveries));
      last_step = step;
      last_blocked = blocked;
    }
  }

  // SIGTERM: publish terminal state + trace, then tear down cleanly.
  std::ostringstream state;
  state << "{\"state\":\"" << sa::proto::to_string(agent.state())
        << "\",\"recoveries\":" << recoveries << "}\n";
  write_file_atomic(args.workdir + "/" + me.name + ".state.json", state.str());
  write_trace(args.workdir + "/" + me.name + ".trace.jsonl", transport);
  return 0;
}

// ---------------------------------------------------------------------------
// manager role

int run_manager(const Args& args, sa::inject::FaultyRuntime& frt,
                sa::runtime::SocketTransport& transport, const std::vector<NodeInfo>& topology,
                const sa::inject::FaultPlan& plan) {
  const sa::core::PaperScenario scenario = sa::core::make_paper_scenario();

  // Slightly deeper retry budget than the simulated campaigns: real crash
  // windows last hundreds of milliseconds of wall time, and the manager must
  // outlast them for the re-exec'd agent to be revived by retransmission.
  sa::proto::ManagerConfig config;
  config.message_retries = 3;
  config.run_to_completion_retries = 10;
  sa::proto::AdaptationManager manager(frt, kManagerNode, *scenario.invariants,
                                       *scenario.actions, config);
  for (NodeId id = 1; id < topology.size(); ++id) {
    frt.transport().connect_bidirectional(kManagerNode, id);
    manager.register_agent(topology[id].process, id, topology[id].stage);
  }
  manager.set_current_configuration(scenario.source);
  if (!args.fault.empty()) {
    manager.inject_fault(sa::check::fault_from_string(args.fault));
  }

  // Let the agent processes finish arming their receive handlers; a reset
  // sent into a not-yet-listening socket is recoverable loss, but the settle
  // delay keeps clean runs clean.
  sleep_us(sa::runtime::ms(200));
  arm(frt, plan, nullptr, 0);

  std::atomic<bool> done{false};
  sa::proto::AdaptationResult result;
  std::mutex result_mutex;
  manager.request_adaptation(scenario.target, [&](const sa::proto::AdaptationResult& r) {
    std::lock_guard lock(result_mutex);
    result = r;
    done.store(true);
  });
  const bool finished = frt.wait_until([&] { return done.load(); }, SIZE_MAX);

  std::lock_guard lock(result_mutex);
  std::ostringstream out;
  out << "{\"outcome\":\""
      << (finished ? sa::proto::to_string(result.outcome) : "did-not-terminate")
      << "\",\"final_config_bits\":"
      << (finished ? result.final_config.bits() : manager.current_configuration().bits())
      << ",\"committed_actions\":[";
  bool first = true;
  for (const sa::proto::StepRecord& record : manager.step_log()) {
    if (!record.committed || record.rolled_back) continue;
    out << (first ? "" : ",") << '"' << sa::obs::json_escape(record.action_name) << '"';
    first = false;
  }
  out << "],\"steps_committed\":" << (finished ? result.steps_committed : 0)
      << ",\"step_failures\":" << (finished ? result.step_failures : 0)
      << ",\"total_blocked_us\":" << manager.total_blocked_reported() << "}\n";
  write_file_atomic(args.workdir + "/result.json", out.str());
  write_trace(args.workdir + "/manager.trace.jsonl", transport);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--topology") {
        args.topology = value();
      } else if (flag == "--node") {
        args.node = value();
      } else if (flag == "--workdir") {
        args.workdir = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--scenario") {
        args.scenario = value();
      } else if (flag == "--plan") {
        args.plan_path = value();
      } else if (flag == "--fault") {
        args.fault = value();
      } else if (flag == "--max-wait-ms") {
        args.max_wait = sa::runtime::ms(static_cast<sa::runtime::Time>(std::stoll(value())));
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::cerr << "sa_node: " << e.what() << "\n";
      return 2;
    }
  }
  if (args.topology.empty() || args.node.empty() || args.workdir.empty()) {
    return usage(argv[0]);
  }
  if (args.scenario != "paper") {
    std::cerr << "sa_node: unsupported scenario \"" << args.scenario << "\"\n";
    return 2;
  }

  struct sigaction sa = {};
  sa.sa_handler = on_sigterm;
  ::sigaction(SIGTERM, &sa, nullptr);

  sa::proto::register_wire_codecs();

  try {
    const std::vector<NodeInfo> topology = parse_topology(read_file(args.topology));
    NodeId my_id = topology.size();
    for (NodeId id = 0; id < topology.size(); ++id) {
      if (topology[id].name == args.node) my_id = id;
    }
    if (my_id == topology.size()) {
      std::cerr << "sa_node: node \"" << args.node << "\" not in topology\n";
      return 2;
    }
    const NodeInfo& me = topology[my_id];

    // A respawned incarnation finds endpoints.json already published and must
    // rebind the exact port its peers learned in the exchange.
    const std::string endpoints_path = args.workdir + "/endpoints.json";
    std::map<std::string, std::uint16_t> endpoints = parse_endpoints(read_file(endpoints_path));

    sa::runtime::SocketTransportOptions topt;
    for (const NodeInfo& info : topology) {
      std::uint16_t port = 0;
      if (const auto it = endpoints.find(info.name); it != endpoints.end()) port = it->second;
      topt.topology.push_back({info.name, port});
    }
    topt.local = {my_id};
    topt.seed = args.seed ^ (static_cast<std::uint64_t>(my_id) << 32);
    const std::uint64_t fault_seed = topt.seed ^ kFaultStream;

    sa::runtime::SocketRuntimeOptions ropt;
    ropt.transport = std::move(topt);
    ropt.wait_cap = args.max_wait;
    sa::runtime::SocketRuntime rt(std::move(ropt));
    sa::inject::FaultyRuntime frt(rt, fault_seed);
    auto& transport = rt.socket_transport();
    transport.add_node(me.name);
    transport.set_tracing(true);

    write_file_atomic(args.workdir + "/" + me.name + ".port",
                      std::to_string(transport.local_port(my_id)) + "\n");

    // Endpoint exchange: wait for the supervisor to publish the full table.
    if (endpoints.empty()) {
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
      while (endpoints.empty() && g_sigterm == 0) {
        endpoints = parse_endpoints(read_file(endpoints_path));
        if (!endpoints.empty()) break;
        if (std::chrono::steady_clock::now() >= deadline) {
          std::cerr << "sa_node: endpoints.json never appeared\n";
          return 3;
        }
        sleep_us(sa::runtime::ms(2));
      }
    }
    for (NodeId id = 0; id < topology.size(); ++id) {
      if (id == my_id) continue;
      if (const auto it = endpoints.find(topology[id].name); it != endpoints.end()) {
        transport.set_endpoint_port(id, it->second);
      }
    }

    sa::inject::FaultPlan plan;
    if (!args.plan_path.empty()) {
      plan = sa::inject::plan_from_json(read_file(args.plan_path));
    }
    // Crash windows are the supervisor's: real kill -9 / re-exec.
    std::erase_if(plan.events, [](const sa::inject::FaultEvent& event) {
      return event.kind == sa::inject::FaultKind::Crash;
    });

    if (me.role != "manager" && me.role != "agent") {
      std::cerr << "sa_node: unknown role \"" << me.role << "\"\n";
      return 2;
    }
    const int code = me.role == "manager" ? run_manager(args, frt, transport, topology, plan)
                                          : run_agent(args, frt, transport, my_id, me, plan);
    rt.shutdown();  // no window edge may fire into the decorator once it is gone
    return code;
  } catch (const std::exception& e) {
    std::cerr << "sa_node: " << e.what() << "\n";
    return 3;
  }
}
