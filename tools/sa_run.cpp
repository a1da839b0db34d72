// sa_run — the realization phase as a command-line tool.
//
// Loads a scenario file, attaches a generic adaptable process per declared
// process id (at the reset stage of its `process` line, else at stage = id),
// and executes the source -> target adaptation through the full
// manager/agent protocol on the simulator, printing the per-step timeline.
// Failure injection flags reproduce the §4.4 experiments on any scenario:
//
//   sa_run <scenario-file> [--loss P] [--dup P] [--fail-process ID]
//          [--trace-out FILE [--trace-format jsonl|chrome]] [--metrics-out FILE]
//
//   --loss P          control-channel loss probability (0..1)
//   --dup P           control-channel duplication probability (0..1)
//   --fail-process N  process N never reaches its safe state (fail-to-reset)
//   --trace-out FILE  record the protocol event trace and write it to FILE
//   --trace-format F  jsonl (default; line-delimited events) or chrome
//                     (trace_event JSON for chrome://tracing / Perfetto)
//   --metrics-out F   write protocol metrics in Prometheus text format
//
// Fleet mode runs the hierarchical mass-adaptation campaign instead of a
// scenario file, printing one deterministic report line per region — the
// same text for any --threads value, which the CI fleet-smoke job diffs:
//
//   sa_run --fleet [--clusters N] [--threads N] [--lanes-per-leaf N]
//          [--fanout N] [--epoch-window USEC] [--seed S] [--trace-out FILE]
//          [--trace-full]
//
// With --trace-out, fleet mode records every region's causal trace (jsonl
// only) and concatenates them region-tagged into FILE — input for sa_trace.
//
// Dataplane mode exercises the zero-copy batched data plane at real-time
// wall-clock speed: N producer/pump thread pairs stream arena packets through
// DES encode/decode chains while lane 0 is adapted DES-64 -> DES-128 through
// the §5.2 quiescence handshake mid-run. Exit status is 0 only if every
// delivered packet survived intact:
//
//   sa_run --dataplane [--streams N] [--packets N] [--seed S]
//
// Distributed mode reproduces the paper's multi-host testbed shape: the
// manager and the three §5 agents run as separate sa_node OS processes over
// loopback sockets (see core/supervisor.hpp), and the tool prints the
// manager's terminal outcome plus the committed action sequence:
//
//   sa_run --distributed [--seed S] [--sa-node PATH] [--keep-workdir]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "core/fleet.hpp"
#include "core/scenario_file.hpp"
#include "core/supervisor.hpp"
#include "core/system.hpp"
#include "crypto/codec_filters.hpp"
#include "obs/export.hpp"
#include "util/strings.hpp"
#include "video/pump.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario-file> [--loss P] [--dup P] [--fail-process ID]\n"
               "       [--trace-out FILE [--trace-format jsonl|chrome]] [--metrics-out FILE]\n"
               "       %s --fleet [--clusters N] [--threads N] [--lanes-per-leaf N]\n"
               "       [--fanout N] [--epoch-window USEC] [--seed S] [--trace-out FILE]\n"
               "       [--trace-full]\n"
               "       %s --dataplane [--streams N] [--packets N] [--seed S]\n"
               "       %s --distributed [--seed S] [--sa-node PATH] [--keep-workdir]\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

int bad_flag(const char* flag, const char* value, const char* expected) {
  std::fprintf(stderr, "sa_run: invalid value '%s' for %s (expected %s)\n", value, flag,
               expected);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sa;

  const char* path = nullptr;
  bool fleet = false;
  bool dataplane = false;
  bool distributed = false;
  core::DistributedOptions dist_options;
  video::PumpConfig pump_config;
  pump_config.streams = 2;
  pump_config.packets_per_stream = 100'000;
  core::FleetSpec fleet_spec;
  double loss = 0.0;
  double dup = 0.0;
  std::optional<config::ProcessId> fail_process;
  const char* trace_out = nullptr;
  std::string trace_format = "jsonl";
  const char* metrics_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--loss") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      const auto parsed = util::parse_double(value);
      if (!parsed || *parsed < 0.0 || *parsed > 1.0) {
        return bad_flag("--loss", value, "a probability in [0, 1]");
      }
      loss = *parsed;
    } else if (std::strcmp(argv[i], "--dup") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      const auto parsed = util::parse_double(value);
      if (!parsed || *parsed < 0.0 || *parsed > 1.0) {
        return bad_flag("--dup", value, "a probability in [0, 1]");
      }
      dup = *parsed;
    } else if (std::strcmp(argv[i], "--fail-process") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      const auto parsed = util::parse_u64(value);
      if (!parsed) return bad_flag("--fail-process", value, "a process id");
      fail_process = static_cast<config::ProcessId>(*parsed);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-format") == 0 && i + 1 < argc) {
      trace_format = argv[++i];
      if (trace_format != "jsonl" && trace_format != "chrome") {
        return bad_flag("--trace-format", trace_format.c_str(), "jsonl or chrome");
      }
    } else if (std::strcmp(argv[i], "--trace-full") == 0) {
      fleet_spec.trace_full = true;
      // Full detail records every kind; give the rings timer/phase headroom.
      fleet_spec.trace_capacity = 1 << 12;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--fleet") == 0) {
      fleet = true;
    } else if (std::strcmp(argv[i], "--dataplane") == 0) {
      dataplane = true;
    } else if (std::strcmp(argv[i], "--distributed") == 0) {
      distributed = true;
    } else if (std::strcmp(argv[i], "--sa-node") == 0 && i + 1 < argc) {
      dist_options.sa_node = argv[++i];
    } else if (std::strcmp(argv[i], "--keep-workdir") == 0) {
      dist_options.keep_workdir = true;
    } else if (std::strcmp(argv[i], "--streams") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      const auto parsed = util::parse_u64(value);
      if (!parsed || *parsed == 0) return bad_flag("--streams", value, "a positive count");
      pump_config.streams = static_cast<std::size_t>(*parsed);
    } else if (std::strcmp(argv[i], "--packets") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      const auto parsed = util::parse_u64(value);
      if (!parsed || *parsed == 0) {
        return bad_flag("--packets", value, "a positive per-stream packet count");
      }
      pump_config.packets_per_stream = *parsed;
    } else if (std::strcmp(argv[i], "--clusters") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      const auto parsed = util::parse_u64(value);
      if (!parsed || *parsed == 0) return bad_flag("--clusters", value, "a positive count");
      fleet_spec.clusters = static_cast<std::size_t>(*parsed);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      const auto parsed = util::parse_u64(value);
      if (!parsed || *parsed == 0) return bad_flag("--threads", value, "a positive count");
      fleet_spec.threads = static_cast<std::size_t>(*parsed);
    } else if (std::strcmp(argv[i], "--lanes-per-leaf") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      const auto parsed = util::parse_u64(value);
      if (!parsed || *parsed == 0) return bad_flag("--lanes-per-leaf", value, "a positive count");
      fleet_spec.lanes_per_leaf = static_cast<std::size_t>(*parsed);
    } else if (std::strcmp(argv[i], "--fanout") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      const auto parsed = util::parse_u64(value);
      if (!parsed || *parsed < 2) return bad_flag("--fanout", value, "a fanout >= 2");
      fleet_spec.fanout = static_cast<std::size_t>(*parsed);
    } else if (std::strcmp(argv[i], "--epoch-window") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      const auto parsed = util::parse_u64(value);
      if (!parsed) return bad_flag("--epoch-window", value, "a window in microseconds");
      fleet_spec.epoch_window = runtime::us(static_cast<std::int64_t>(*parsed));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      const auto parsed = util::parse_u64(value);
      if (!parsed) return bad_flag("--seed", value, "an unsigned seed");
      fleet_spec.seed = *parsed;
      pump_config.seed = *parsed;
      dist_options.seed = *parsed;
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      path = argv[i];
    }
  }
  if (distributed) {
    std::printf("distributed: 1 manager + 3 agents as sa_node processes over loopback\n");
    const core::DistributedReport report = core::run_distributed_paper(dist_options);
    for (const std::string& error : report.infra_errors) {
      std::fprintf(stderr, "sa_run: %s\n", error.c_str());
    }
    std::string actions;
    for (const std::string& action : report.committed_actions) {
      actions += (actions.empty() ? "" : ", ") + action;
    }
    std::printf("outcome: %s\nactions: %s\nfinal config bits: %llu\n",
                report.outcome.empty() ? "(none)" : report.outcome.c_str(), actions.c_str(),
                static_cast<unsigned long long>(report.final_config_bits));
    for (const auto& [name, state] : report.agent_states) {
      std::printf("agent %s: %s (%llu recoveries)\n", name.c_str(), state.c_str(),
                  static_cast<unsigned long long>(report.agent_recoveries.count(name)
                                                      ? report.agent_recoveries.at(name)
                                                      : 0));
    }
    std::printf("trace: %zu merged entries; wall %.0f ms\n", report.merged_trace.size(),
                report.wall_ms);
    if (!report.workdir.empty()) std::printf("workdir: %s\n", report.workdir.c_str());
    return report.infra_ok && report.outcome == "success" ? 0 : 1;
  }
  if (dataplane) {
    std::printf("dataplane: %zu stream(s) x %llu packets, DES-64 -> DES-128 on lane 0 mid-run\n",
                pump_config.streams,
                static_cast<unsigned long long>(pump_config.packets_per_stream));
    video::DataPlanePump pump(pump_config);
    pump.start();
    pump.adapt_lane(0, [](components::FilterChain& encode, components::FilterChain& decode) {
      // Paper order: widen the decoder before switching the encoder.
      decode.replace_filter("D1", crypto::make_decoder("D2", true, true));
      encode.replace_filter("E1", crypto::make_encoder_e2());
    });
    pump.run_to_completion();
    std::printf("%-6s %-10s %-10s %-10s %-12s %-10s %-12s %-12s %s\n", "lane", "delivered",
                "intact", "corrupted", "undecodable", "pps", "p99(us)", "blocked(us)",
                "windows");
    for (std::size_t lane = 0; lane < pump.streams(); ++lane) {
      const video::LaneReport r = pump.lane_report(lane);
      std::printf("%-6zu %-10llu %-10llu %-10llu %-12llu %-10.0f %-12.1f %-12.1f %llu\n", lane,
                  static_cast<unsigned long long>(r.delivered),
                  static_cast<unsigned long long>(r.intact),
                  static_cast<unsigned long long>(r.corrupted),
                  static_cast<unsigned long long>(r.undecodable), r.pps, r.p99_delay_us,
                  r.blocked_us, static_cast<unsigned long long>(r.blocked_windows));
    }
    const video::LaneReport total = pump.total_report();
    std::printf("total: %llu delivered, %llu intact, %llu corrupted, %.0f packets/s aggregate\n",
                static_cast<unsigned long long>(total.delivered),
                static_cast<unsigned long long>(total.intact),
                static_cast<unsigned long long>(total.corrupted), total.pps);
    const bool clean = total.corrupted == 0 && total.undecodable == 0 &&
                       total.intact == total.delivered &&
                       total.delivered == pump_config.streams * pump_config.packets_per_stream;
    std::printf("outcome: %s\n", clean ? "clean (every packet intact)" : "DISRUPTED");
    return clean ? 0 : 1;
  }
  if (fleet) {
    if (trace_out != nullptr) {
      if (trace_format != "jsonl") {
        std::fprintf(stderr, "sa_run: fleet traces support --trace-format jsonl only\n");
        return 2;
      }
      fleet_spec.trace = true;
    }
    const core::FleetReport report = core::run_fleet(fleet_spec);
    std::fputs(core::describe(report).c_str(), stdout);
    if (trace_out != nullptr) {
      std::ofstream out(trace_out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", trace_out);
        return 1;
      }
      // Regions concatenate in index order, so the fleet trace is one file
      // that is bit-identical for any --threads value.
      for (const core::RegionReport& region : report.regions) out << region.trace_jsonl;
      std::printf("trace: %llu events (%llu dropped) -> %s (jsonl, %zu regions)\n",
                  static_cast<unsigned long long>(report.trace_events),
                  static_cast<unsigned long long>(report.trace_dropped), trace_out,
                  report.regions.size());
    }
    return report.success ? 0 : 1;
  }
  if (!path) return usage(argv[0]);

  core::ParsedScenario scenario;
  try {
    scenario = core::load_scenario(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  // Rebuild the scenario inside a SafeAdaptationSystem (the facade owns its
  // own registry) and attach one stub process per declared process id, at the
  // stage its `process` line gives (its id when it has none).
  core::SystemConfig system_config;
  system_config.control_channel.loss_probability = loss;
  system_config.control_channel.duplicate_probability = dup;
  if (loss > 0 || dup > 0) system_config.manager.message_retries = 8;
  core::SafeAdaptationSystem system(system_config);
  core::configure_system(system, scenario);

  std::map<config::ProcessId, proto::ObedientProcess> processes;
  for (const config::ProcessId process : scenario.registry->processes()) {
    system.attach_process(process, processes[process], scenario.stage_of(process));
  }
  if (trace_out) system.tracer().set_enabled(true);
  system.finalize();
  system.set_current_configuration(*scenario.source);
  if (fail_process) system.agent(*fail_process).set_fail_to_reset(true);

  std::printf("adapting {%s} -> {%s}%s\n",
              scenario.source->describe(system.registry()).c_str(),
              scenario.target->describe(system.registry()).c_str(),
              fail_process ? " (with injected fail-to-reset)" : "");

  const auto result = system.adapt_and_wait(*scenario.target, 10'000'000);

  std::printf("%-10s %-6s %-8s %-12s %s\n", "time (ms)", "step", "action", "duration(ms)",
              "fate");
  for (const auto& record : system.manager().step_log()) {
    std::printf("%-10.2f %u.%u.%u  %-8s %-12.2f %s\n", record.started / 1000.0,
                record.ref.plan, record.ref.step_index, record.ref.attempt,
                record.action_name.c_str(), (record.finished - record.started) / 1000.0,
                record.committed ? "committed" : "rolled back");
  }
  std::printf("\noutcome: %s (%s)\n", std::string(proto::to_string(result.outcome)).c_str(),
              result.detail.c_str());
  std::printf("final configuration: {%s}%s\n",
              result.final_config.describe(system.registry()).c_str(),
              system.invariants().satisfied(result.final_config) ? " [safe]" : " [UNSAFE!]");
  std::printf("steps committed: %zu, step failures: %zu, retransmission rounds: %zu, "
              "virtual time: %.1f ms\n",
              result.steps_committed, result.step_failures, result.message_retries,
              (result.finished - result.started) / 1000.0);

  if (trace_out) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_out);
      return 1;
    }
    if (trace_format == "chrome") {
      obs::write_chrome_trace(system.tracer(), out);
    } else {
      obs::write_jsonl(system.tracer(), out);
    }
    std::printf("trace: %zu events -> %s (%s)\n", system.tracer().size(), trace_out,
                trace_format.c_str());
  }
  if (metrics_out) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out);
      return 1;
    }
    obs::write_prometheus(system.metrics(), out);
    std::printf("metrics -> %s\n", metrics_out);
  }
  return result.outcome == proto::AdaptationOutcome::Success ? 0 : 1;
}
