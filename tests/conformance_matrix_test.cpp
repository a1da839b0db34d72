// Randomized seed-matrix conformance: the paper scenario driven end to end
// under randomly drawn loss / duplication / partition conditions, on both
// runtime backends, with every message trace checked against the Fig. 1 /
// Fig. 2 automata by the protocol conformance checker. Complements the
// explorer (tests/check_explorer_test.cpp): the explorer proves schedules of
// the cores safe, this proves the real drivers stay conformant under the
// randomness the runtime actually produces.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <sstream>
#include <string>

#include "core/paper_scenario.hpp"
#include "core/system.hpp"
#include "inject/faulty_runtime.hpp"
#include "proto/conformance.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/threaded_runtime.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace sa::check {
namespace {

struct NullProcess : proto::AdaptableProcess {
  bool prepare(const proto::LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const proto::LocalCommand&) override { return true; }
  bool undo(const proto::LocalCommand&) override { return true; }
  void resume() override {}
};

struct MatrixPoint {
  std::uint64_t seed = 0;
  double loss = 0.0;
  double duplicate = 0.0;
  bool partition_handheld = false;

  std::string describe() const {
    std::ostringstream out;
    out << "seed=" << seed << " loss=" << loss << " dup=" << duplicate
        << (partition_handheld ? " partitioned" : "");
    return out.str();
  }
};

void attach_null_processes(core::SafeAdaptationSystem& system, NullProcess& server,
                           NullProcess& handheld, NullProcess& laptop) {
  core::configure_paper_system(system);
  system.attach_process(core::kServerProcess, server, /*stage=*/0);
  system.attach_process(core::kHandheldProcess, handheld, /*stage=*/1);
  system.attach_process(core::kLaptopProcess, laptop, /*stage=*/1);
  system.finalize();
  system.set_current_configuration(core::paper_source(system.registry()));
}

TEST(ConformanceMatrix, SimBackendRandomSeedsStayClean) {
  util::Rng rng(0xC0FFEE);
  for (int i = 0; i < 12; ++i) {
    MatrixPoint point;
    point.seed = rng.next_u64();
    point.loss = 0.3 * rng.next_double();
    point.duplicate = 0.2 * rng.next_double();
    point.partition_handheld = (i % 4) == 3;  // every fourth run loses an agent

    core::SystemConfig config;
    config.seed = point.seed;
    config.control_channel.loss_probability = point.loss;
    config.control_channel.duplicate_probability = point.duplicate;
    runtime::SimRuntime sim(point.seed);
    inject::FaultyRuntime faulty(sim, point.seed);
    inject::FaultyTransport& faults = faulty.faulty_transport();
    core::SafeAdaptationSystem system(faulty, config);
    NullProcess server, handheld, laptop;
    attach_null_processes(system, server, handheld, laptop);
    faults.set_tracing(true);
    if (point.partition_handheld) {
      faults.partition_pair(system.manager_node(), system.agent_node(core::kHandheldProcess),
                            true);
    }

    std::optional<proto::AdaptationResult> result;
    system.request_adaptation(
        core::paper_target(system.registry()),
        [&result](const proto::AdaptationResult& r) { result = r; });
    std::size_t events = 0;
    while (!result && events < 2'000'000 && sim.simulator().step()) ++events;
    ASSERT_TRUE(result.has_value()) << point.describe();

    const auto violations =
        proto::check_trace(faults.trace(), {system.manager_node()});
    for (const auto& violation : violations) {
      ADD_FAILURE() << point.describe() << " t=" << violation.time << ": "
                    << violation.description;
    }
  }
}

TEST(ConformanceMatrix, ThreadedBackendRandomSeedsStayClean) {
  util::Rng rng(0xBEEF);
  for (int i = 0; i < 3; ++i) {
    MatrixPoint point;
    point.seed = rng.next_u64();
    // Modest fault rates: each lost message costs a real-time retransmission
    // round here, unlike on the simulated clock.
    point.loss = 0.05 * rng.next_double();
    point.duplicate = 0.1 * rng.next_double();

    runtime::ThreadedRuntime rt({.workers = 4, .seed = point.seed});
    core::SystemConfig config;
    config.seed = point.seed;
    config.control_channel.loss_probability = point.loss;
    config.control_channel.duplicate_probability = point.duplicate;
    core::SafeAdaptationSystem system(rt, config);
    NullProcess server, handheld, laptop;
    attach_null_processes(system, server, handheld, laptop);
    rt.transport().set_tracing(true);

    const proto::AdaptationResult result =
        system.adapt_and_wait(core::paper_target(system.registry()));
    EXPECT_NE(result.outcome, proto::AdaptationOutcome::NoPathFound) << point.describe();

    rt.shutdown();
    const auto violations =
        proto::check_trace(rt.transport().trace(), {system.manager_node()});
    for (const auto& violation : violations) {
      ADD_FAILURE() << point.describe() << " t=" << violation.time << ": "
                    << violation.description;
    }
  }
}

}  // namespace
}  // namespace sa::check
