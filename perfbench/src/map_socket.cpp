// map_socket: the distributed deployment. The three agents of the paper's
// scenario run as sa_node processes spawned once through core::Supervisor;
// this process binds the manager's socket endpoint and serves a closed loop
// of the paper's request (MAP A2, A17, A1, A16, A4) over loopback UDP, one
// request in flight, resetting its recorded configuration to the source
// between requests. Op: one request.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/paper_scenario.hpp"
#include "core/supervisor.hpp"
#include "obs/trace_recorder.hpp"
#include "proto/core/agent_core.hpp"
#include "proto/manager.hpp"
#include "proto/messages.hpp"
#include "proto/wire_codecs.hpp"
#include "runtime/socket_runtime.hpp"
#include "runtime/wire.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace fs = std::filesystem;
using sa::runtime::NodeId;

struct AgentNode {
  const char* name;
  sa::config::ProcessId process;
  int stage;
};
// Same topology as the supervisor's one-shot paper deployment: the server
// quiesces in stage 0, both clients in stage 1.
constexpr AgentNode kAgents[] = {
    {"server-agent", 0, 0}, {"handheld-agent", 1, 1}, {"laptop-agent", 2, 1}};
const std::vector<std::string> kPaperMap{"A2", "A17", "A1", "A16", "A4"};
constexpr std::uint64_t kFinalBits = 82;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::ofstream(tmp) << text;
  fs::rename(tmp, path);
}

template <class Pred>
bool poll_until(Pred done, double timeout_s) {
  const auto deadline = after(Clock::now(), timeout_s);
  while (!done()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

struct Outcome {
  bool finished = false;
  sa::proto::AdaptationResult result;
  double wall_us = 0;
  double blocked_us = 0;
};

/// One manager process's view of the deployment.
class Deployment {
 public:
  Deployment(const RunConfig& cfg, const std::string& dir) : dir_(dir) {
    const auto t0 = Clock::now();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    std::ostringstream topology;
    topology << "{\"nodes\": [{\"name\": \"manager\", \"role\": \"manager\"}";
    for (const AgentNode& a : kAgents) {
      topology << ", {\"name\": \"" << a.name << "\", \"role\": \"agent\", \"process\": "
               << a.process << ", \"stage\": " << a.stage << "}";
    }
    topology << "]}\n";
    write_file(dir_ + "/topology.json", topology.str());

    sa::runtime::SocketRuntimeOptions options;
    options.transport.topology.push_back({"manager", 0});
    for (const AgentNode& a : kAgents) options.transport.topology.push_back({a.name, 0});
    options.transport.local = {0};
    options.transport.seed = cfg.seed;
    options.wait_cap = sa::runtime::seconds(10);
    rt_ = std::make_unique<sa::runtime::SocketRuntime>(std::move(options));
    rt_->socket_transport().add_node("manager");

    const auto t_spawn = Clock::now();
    for (const AgentNode& a : kAgents) {
      pids_.push_back(supervisor_.spawn(
          cfg.sa_node,
          {"--topology", dir_ + "/topology.json", "--node", a.name, "--workdir", dir_, "--seed",
           std::to_string(cfg.seed)},
          a.name, dir_ + "/" + a.name + ".log"));
    }
    const auto t_spawned = Clock::now();

    // Endpoint exchange: every agent publishes its ephemeral port; the table
    // (manager included) goes out as endpoints.json.
    const auto published = [&] {
      for (const AgentNode& a : kAgents) {
        if (read_file(dir_ + "/" + a.name + ".port").empty()) return false;
      }
      return true;
    };
    if (!poll_until(published, 15)) {
      throw std::runtime_error("map_socket: endpoint exchange timed out");
    }
    std::ostringstream endpoints;
    endpoints << "{\"manager\": " << rt_->socket_transport().local_port(0);
    for (std::size_t i = 0; i < std::size(kAgents); ++i) {
      const std::string port_file = dir_ + "/" + kAgents[i].name + ".port";
      const auto port = static_cast<std::uint16_t>(std::stoul(read_file(port_file)));
      rt_->socket_transport().set_endpoint_port(static_cast<NodeId>(i + 1), port);
      endpoints << ", \"" << kAgents[i].name << "\": " << port;
    }
    endpoints << "}\n";
    write_file(dir_ + "/endpoints.json", endpoints.str());
    const auto t_exchanged = Clock::now();

    // Ready: each agent journals once its protocol handler is installed;
    // then the first request must come back answered.
    const auto armed = [&] {
      for (const AgentNode& a : kAgents) {
        if (!fs::exists(dir_ + "/" + a.name + ".journal.json")) return false;
      }
      return true;
    };
    if (!poll_until(armed, 15)) throw std::runtime_error("map_socket: agents never armed");
    sa::proto::ManagerConfig config;  // as sa_node's manager role configures it
    config.message_retries = 3;
    config.run_to_completion_retries = 10;
    manager_ = std::make_unique<sa::proto::AdaptationManager>(*rt_, 0, *scenario_.invariants,
                                                              *scenario_.actions, config);
    for (std::size_t i = 0; i < std::size(kAgents); ++i) {
      const NodeId node = static_cast<NodeId>(i + 1);
      rt_->socket_transport().connect_bidirectional(0, node);
      manager_->register_agent(kAgents[i].process, node, kAgents[i].stage);
    }
    const Outcome first = request();
    if (!first.finished || first.result.outcome != sa::proto::AdaptationOutcome::Success) {
      throw std::runtime_error("map_socket: first request not answered with success");
    }
    const auto t_ready = Clock::now();

    setup_s = s_between(t0, t_ready);
    spawn_ms = us_between(t_spawn, t_spawned) / 1000;
    exchange_ms = us_between(t_spawned, t_exchanged) / 1000;
    ready_ms = us_between(t_exchanged, t_ready) / 1000;
  }

  ~Deployment() {
    try {
      stop();
    } catch (...) {
    }
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// The paper's request from the source configuration, waited for.
  Outcome request() {
    manager_->set_current_configuration(scenario_.source);
    const sa::runtime::Time blocked_before = manager_->total_blocked_reported();
    std::atomic<bool> done{false};
    std::mutex mu;
    Outcome outcome;
    const auto t0 = Clock::now();
    manager_->request_adaptation(scenario_.target, [&](const sa::proto::AdaptationResult& r) {
      std::lock_guard lock(mu);
      outcome.result = r;
      done.store(true);
    });
    outcome.finished = rt_->wait_until([&] { return done.load(); });
    outcome.wall_us = us_between(t0, Clock::now());
    std::lock_guard lock(mu);
    outcome.blocked_us = static_cast<double>(manager_->total_blocked_reported() - blocked_before);
    return outcome;
  }

  /// Tears the deployment down; true when every agent exited cleanly on
  /// SIGTERM.
  bool stop() {
    if (!rt_) return clean_;
    manager_.reset();
    rt_->shutdown();
    rt_.reset();
    clean_ = true;
    const auto exits = supervisor_.terminate_all(sa::runtime::seconds(5));
    for (const sa::core::Supervisor::Exit& exit : exits) {
      clean_ = clean_ && !exit.signaled && exit.code == 0;
    }
    std::error_code ec;
    fs::remove_all(dir_, ec);
    return clean_;
  }

  sa::proto::AdaptationManager& manager() { return *manager_; }
  sa::runtime::SocketTransport& transport() { return rt_->socket_transport(); }
  const std::vector<pid_t>& agent_pids() const { return pids_; }

  double setup_s = 0, spawn_ms = 0, exchange_ms = 0, ready_ms = 0;

 private:
  std::string dir_;
  sa::core::PaperScenario scenario_ = sa::core::make_paper_scenario();
  sa::core::Supervisor supervisor_;
  std::vector<pid_t> pids_;
  std::unique_ptr<sa::runtime::SocketRuntime> rt_;
  std::unique_ptr<sa::proto::AdaptationManager> manager_;
  bool clean_ = false;
};

/// Median round trip of a control message between two endpoints bound in
/// this process, over the same loopback sockets the deployment uses.
double loopback_rtt_us(std::uint64_t seed) {
  sa::runtime::SocketTransportOptions options;
  options.topology = {{"ping", 0}, {"pong", 0}};
  options.local = {0, 1};
  options.seed = seed;
  sa::runtime::SocketTransport transport(std::move(options));
  std::atomic<std::uint64_t> returned{0};
  transport.add_node("ping", [&](NodeId, sa::runtime::MessagePtr) { returned.fetch_add(1); });
  transport.add_node("pong", [&](NodeId from, sa::runtime::MessagePtr message) {
    transport.send(1, from, std::move(message));
  });
  transport.connect_bidirectional(0, 1);
  std::vector<double> rtts;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    transport.send(0, 1, std::make_shared<sa::proto::ResumeMsg>());
    if (!poll_until([&] { return returned.load() > i; }, 2)) break;
    rtts.push_back(us_between(t0, Clock::now()));
  }
  transport.stop();
  return median(rtts);
}

}  // namespace

Report run_map_socket(const RunConfig& cfg) {
  sa::proto::register_wire_codecs();
  Report report;

  std::vector<double> setups, spawn, exchange, ready, residual;
  std::unique_ptr<Deployment> deployment;
  for (int i = 0; i < cfg.setups; ++i) {
    if (deployment) report.check(deployment->stop(), "map_socket: an agent did not exit cleanly");
    deployment.reset();
    deployment = std::make_unique<Deployment>(
        cfg, cfg.workdir + "/map_socket." + std::to_string(::getpid()));
    setups.push_back(deployment->setup_s);
    spawn.push_back(deployment->spawn_ms);
    exchange.push_back(deployment->exchange_ms);
    ready.push_back(deployment->ready_ms);
    residual.push_back(deployment->setup_s * 1000 - deployment->spawn_ms - deployment->exchange_ms -
                       deployment->ready_ms);
  }

  std::vector<double> latencies, blocked, overshoot;
  std::uint64_t failed = 0;
  const auto begin = Clock::now();
  const auto deadline = after(begin, cfg.seconds);
  while (Clock::now() < deadline) {
    const Outcome outcome = deployment->request();
    latencies.push_back(outcome.wall_us);
    blocked.push_back(outcome.blocked_us);
    const auto reported = outcome.result.finished - outcome.result.started;
    overshoot.push_back(outcome.wall_us - static_cast<double>(reported));
    if (!outcome.finished || outcome.result.outcome != sa::proto::AdaptationOutcome::Success ||
        outcome.result.final_config.bits() != kFinalBits) {
      ++failed;
    }
  }
  const double elapsed = s_between(begin, Clock::now());

  // Every request (the readiness one included) committed exactly the MAP.
  const std::vector<sa::proto::StepRecord> log = deployment->manager().step_log();
  std::map<std::uint64_t, std::vector<std::string>> committed;
  std::vector<double> steps;
  for (const sa::proto::StepRecord& record : log) {
    if (!record.committed || record.rolled_back) continue;
    committed[record.ref.request_id].push_back(record.action_name);
    steps.push_back(static_cast<double>(record.finished - record.started));
  }
  std::uint64_t wrong_map = 0;
  for (const auto& [id, actions] : committed) wrong_map += actions == kPaperMap ? 0 : 1;
  report.attempted = latencies.size();
  report.failed = std::min<std::uint64_t>(latencies.size(), failed + wrong_map);
  report.check(failed == 0, "map_socket: a request did not end in success with final bits 82");
  report.check(wrong_map == 0 && committed.size() == latencies.size() + 1,
               "map_socket: a request did not commit A2, A17, A1, A16, A4");
  const double ops_per_s = static_cast<double>(latencies.size()) / elapsed;

  const double rss = peak_rss_mb_with(deployment->agent_pids());
  const Tail tail = tail_of(latencies, 95);
  report.notes.push_back("map_socket: set-up medians " + std::to_string(median(spawn)) +
                         " ms spawn, " +
                         std::to_string(median(exchange)) + " ms endpoint exchange, " +
                         std::to_string(median(ready)) + " ms to first answered request");
  report.notes.push_back("map_socket: " + std::to_string(latencies.size()) +
                         " requests; latency tail " +
                         describe(tail) + "; peak RSS counts this process and " +
                         std::to_string(deployment->agent_pids().size()) + " agent processes");
  report.end_to_end = {
      {"setup_s", median(setups), "s"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"latency_p50_us", median(latencies), "us"},
      {"blocked_p50_us", median(blocked), "us"},
      {"peak_rss_mb", rss, "MB"},
  };

  if (cfg.traced) {
    report.layers.push_back({"core.spawn_ms", median(spawn), "ms"});
    report.layers.push_back({"core.endpoint_exchange_ms", median(exchange), "ms"});
    report.layers.push_back({"core.ready_ms", median(ready), "ms"});
    report.layers.push_back({"core.setup_residual_ms", median(residual), "ms"});
    report.layers.push_back({"proto.step_p50_us", median(steps), "us"});
    report.layers.push_back({"runtime.wait_overshoot_us", median(overshoot), "us"});

    // Exact counts: the manager's messages and retransmissions per request,
    // and the request's message mix for the wire codec probe. The manager's
    // recorder splits each request's wall latency into fixed timers and the
    // rest: the manager's inter-stage-delay timer (armed -> fired, on its wall
    // clock), and the agents' modelled action durations (sa_node runs the
    // default AgentConfig; each committed step waits pre-action + in-action +
    // resume once, its participants in parallel).
    const sa::proto::AgentConfig agent_config;
    const double agent_step_us = static_cast<double>(agent_config.pre_action_duration +
                                                     agent_config.in_action_duration +
                                                     agent_config.resume_duration);
    auto& transport = deployment->transport();
    sa::obs::TraceRecorder recorder;
    deployment->manager().set_observability(&recorder, nullptr);
    std::vector<double> messages, retransmissions, stage_waits, stage_delays, agent_timers, rest;
    std::vector<sa::runtime::TraceEntry> mix;
    for (int i = 0; i < 20; ++i) {
      transport.clear_trace();
      transport.set_tracing(true);
      recorder.clear();
      recorder.set_enabled(true);
      const Outcome outcome = deployment->request();
      // Late acknowledgements (e.g. a sole participant's resume done) still
      // belong to this request.
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      transport.set_tracing(false);
      recorder.set_enabled(false);
      report.check(
          outcome.finished && outcome.result.outcome == sa::proto::AdaptationOutcome::Success,
          "map_socket: traced request failed");
      double wait_us = 0, fired = 0, committed_steps = 0;
      sa::runtime::Time armed_at = -1;
      for (const sa::obs::Event& e : recorder.events()) {
        if (e.kind == sa::obs::EventKind::StepCommitted) committed_steps += 1;
        if (e.name != "inter-stage-delay") continue;
        if (e.kind == sa::obs::EventKind::TimerArmed) armed_at = e.time;
        if (e.kind == sa::obs::EventKind::TimerFired && armed_at >= 0) {
          wait_us += static_cast<double>(e.time - armed_at);
          fired += 1;
          armed_at = -1;
        }
      }
      stage_waits.push_back(wait_us);
      stage_delays.push_back(fired);
      agent_timers.push_back(committed_steps * agent_step_us);
      rest.push_back(outcome.wall_us - wait_us - committed_steps * agent_step_us);
      messages.push_back(static_cast<double>(transport.trace().size()));
      if (i == 0) {
        std::string types;
        for (const sa::runtime::TraceEntry& e : transport.trace()) {
          types += " " + e.type + (e.delivered ? "" : "(dropped)");
        }
        report.notes.push_back("map_socket: one request's manager-side messages:" + types);
      }
      retransmissions.push_back(static_cast<double>(outcome.result.message_retries));
      if (i == 0) mix = transport.trace();
    }
    deployment->manager().set_observability(nullptr, nullptr);
    report.layers.push_back({"proto.stage_delay_wait_us", median(stage_waits), "us"});
    report.layers.push_back({"proto.stage_delays_per_request", median(stage_delays), "count"});
    report.layers.push_back({"proto.agent_timers_us_per_request", median(agent_timers), "us"});
    report.layers.push_back({"proto.request_rest_us", median(rest), "us"});
    const auto constant = [](const std::vector<double>& v) {
      return *std::min_element(v.begin(), v.end()) == *std::max_element(v.begin(), v.end());
    };
    report.check(constant(stage_delays) && constant(agent_timers),
                 "map_socket: a request's timers changed between requests");
    report.notes.push_back(
        "map_socket: traced request " + std::to_string(median(agent_timers) + median(rest) +
                                                       median(stage_waits)) +
        " us = inter-stage delay " + std::to_string(median(stage_waits)) + " (" +
        std::to_string(median(stage_delays)) + " armed) + agent timers " +
        std::to_string(median(agent_timers)) + " + rest " + std::to_string(median(rest)) +
        " (medians)");
    // The floor repeats exactly; above it, a resume done sometimes arrives
    // twice over real sockets, which is counted on its own.
    const double floor = *std::min_element(messages.begin(), messages.end());
    double extra = 0;
    for (const double m : messages) extra += m - floor;
    report.layers.push_back({"proto.messages_per_request", floor, "count"});
    const double requests = static_cast<double>(messages.size());
    report.layers.push_back({"proto.extra_messages_per_request", extra / requests, "count"});
    double retries = 0;
    for (const double r : retransmissions) retries += r;
    report.layers.push_back({"proto.retransmissions_per_request", retries / requests, "count"});

    double encode_ns = 0, decode_ns = 0;
    std::size_t frames = 0;
    for (int rep = 0; rep < 200; ++rep) {
      for (const sa::runtime::TraceEntry& entry : mix) {
        if (!entry.message) continue;
        const auto t0 = Clock::now();
        const std::vector<std::uint8_t> bytes =
            sa::runtime::encode_frame(entry.from, entry.to, 1, frames, *entry.message);
        const auto t1 = Clock::now();
        const sa::runtime::WireFrame frame = sa::runtime::decode_frame(bytes.data(), bytes.size());
        const auto t2 = Clock::now();
        report.check(frame.message != nullptr &&
                         frame.message->type_name() == entry.message->type_name(),
                     "map_socket: wire round trip changed a message");
        encode_ns += us_between(t0, t1) * 1000;
        decode_ns += us_between(t1, t2) * 1000;
        ++frames;
      }
    }
    report.check(frames > 0, "map_socket: no message captured for the wire probe");
    const double per_frame = frames == 0 ? 0 : 1.0 / static_cast<double>(frames);
    report.layers.push_back({"runtime.wire_encode_ns_per_frame", encode_ns * per_frame, "ns"});
    report.layers.push_back({"runtime.wire_decode_ns_per_frame", decode_ns * per_frame, "ns"});
    report.layers.push_back({"runtime.loopback_rtt_us", loopback_rtt_us(cfg.seed), "us"});
  }
  report.check(deployment->stop(), "map_socket: an agent did not exit cleanly");
  return report;
}

}  // namespace pb
