// Quickstart: the smallest complete use of the safe-adaptation library.
//
// A single process runs one adaptable component; we declare the dependency
// invariant "exactly one codec is installed", register two adaptive actions,
// and ask the manager to swap the codec safely at run time.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/system.hpp"
#include "proto/adaptable_process.hpp"

namespace {

/// A toy adaptable process: it just logs what the agent asks it to do, naming
/// the command's components through the system's registry.
/// Real applications adapt a FilterChain (see the video_multicast example);
/// anything implementing AdaptableProcess can participate in the protocol.
class LoggingProcess : public sa::proto::AdaptableProcess {
 public:
  explicit LoggingProcess(const sa::config::ComponentRegistry& registry) : registry_(&registry) {}

  bool prepare(const sa::proto::LocalCommand& command) override {
    std::printf("  [process] pre-action: preparing %s\n", command.describe(*registry_).c_str());
    return true;
  }
  void reach_safe_state(bool drain, std::function<void()> reached) override {
    std::printf("  [process] reached local safe state%s; blocking\n",
                drain ? " (drained)" : "");
    reached();
  }
  void abort_safe_state() override { std::printf("  [process] reset aborted\n"); }
  bool apply(const sa::proto::LocalCommand& command) override {
    std::printf("  [process] in-action: %s\n", command.describe(*registry_).c_str());
    return true;
  }
  bool undo(const sa::proto::LocalCommand& command) override {
    std::printf("  [process] rollback: undoing %s\n", command.describe(*registry_).c_str());
    return true;
  }
  void resume() override { std::printf("  [process] resumed full operation\n"); }
  void cleanup(const sa::proto::LocalCommand&) override {
    std::printf("  [process] post-action: old component destroyed\n");
  }

 private:
  const sa::config::ComponentRegistry* registry_;
};

}  // namespace

int main() {
  using namespace sa;

  // --- Analysis phase (development time) -----------------------------------
  core::SafeAdaptationSystem system;
  system.registry().add("CodecV1", /*process=*/0, "legacy codec");
  system.registry().add("CodecV2", /*process=*/0, "hardened codec");

  // Dependency relationship: the system needs exactly one codec at all times.
  system.add_invariant("exactly one codec", "one(CodecV1, CodecV2)");

  // Adaptive actions with fixed costs (ms of expected packet delay).
  system.add_action("upgrade", {"CodecV1"}, {"CodecV2"}, 10, "swap in the hardened codec");
  system.add_action("downgrade", {"CodecV2"}, {"CodecV1"}, 10, "fall back to the legacy codec");

  LoggingProcess process(system.registry());
  system.attach_process(0, process);
  system.finalize();

  // --- Detection & setup + realization phases (run time) -------------------
  const auto v1 = config::Configuration::of(system.registry(), {"CodecV1"});
  const auto v2 = config::Configuration::of(system.registry(), {"CodecV2"});
  system.set_current_configuration(v1);

  std::printf("safe configurations: %zu\n", system.manager().safe_configurations().size());
  std::printf("requesting adaptation CodecV1 -> CodecV2...\n");
  const auto result = system.adapt_and_wait(v2);

  std::printf("outcome: %s after %zu step(s), %.2f ms of virtual time\n",
              std::string(proto::to_string(result.outcome)).c_str(), result.steps_committed,
              (result.finished - result.started) / 1000.0);
  std::printf("system is now at: {%s}\n",
              system.current_configuration().describe(system.registry()).c_str());
  return result.outcome == proto::AdaptationOutcome::Success ? 0 : 1;
}
