// Adaptation by component INSERTION (not just replacement): when the data
// channels turn lossy, insert an XOR-FEC encoder/decoder set into the running
// stream. The dependency invariant "the FEC encoder requires a decoder on
// every client" makes the manager install the decoders BEFORE the encoder —
// the same dependency-driven ordering that drives the paper's DES case study.
//
// Build & run:  ./build/examples/adaptive_fec
#include <cstdio>
#include <optional>

#include "components/fec.hpp"
#include "core/system.hpp"
#include "sim/network.hpp"
#include "video/client.hpp"
#include "video/server.hpp"

int main() {
  using namespace sa;

  core::SystemConfig sys_config;
  core::SafeAdaptationSystem system(sys_config);
  system.registry().add("FecE", 0, "XOR-FEC encoder (server)");
  system.registry().add("FecH", 1, "XOR-FEC decoder (hand-held)");
  system.registry().add("FecL", 2, "XOR-FEC decoder (laptop)");
  // Decoders bypass when no parity arrives, so they are safe alone; the
  // encoder must never run without both decoders.
  system.add_invariant("encoder needs decoders", "FecE -> FecH & FecL");
  system.add_action("addFecH", {}, {"FecH"}, 5, "insert hand-held FEC decoder");
  system.add_action("addFecL", {}, {"FecL"}, 5, "insert laptop FEC decoder");
  system.add_action("addFecE", {}, {"FecE"}, 5, "insert server FEC encoder");
  system.add_action("rmFecE", {"FecE"}, {}, 5, "remove server FEC encoder");
  system.add_action("rmFecH", {"FecH"}, {}, 5, "remove hand-held FEC decoder");
  system.add_action("rmFecL", {"FecL"}, {}, 5, "remove laptop FEC decoder");

  const proto::FilterFactory factory = [](const std::string& name) -> components::FilterPtr {
    if (name == "FecE") return std::make_shared<components::XorFecEncoderFilter>("FecE", 4);
    if (name == "FecH") return std::make_shared<components::XorFecDecoderFilter>("FecH");
    if (name == "FecL") return std::make_shared<components::XorFecDecoderFilter>("FecL");
    return nullptr;
  };

  // Assemble the streaming application on the system's network.
  sim::Network& net = system.network();
  const sim::NodeId server_data = net.add_node("server-data");
  const sim::NodeId handheld_data = net.add_node("handheld-data");
  const sim::NodeId laptop_data = net.add_node("laptop-data");
  sim::ChannelConfig lossy{sim::ms(5), sim::ms(2), 0.0, /*fifo=*/false};
  net.connect(server_data, handheld_data, lossy);
  net.connect(server_data, laptop_data, lossy);

  video::StreamConfig stream;
  stream.packets_per_frame = 8;  // 200 packets/s
  const config::ComponentRegistry& registry = system.registry();
  video::VideoServer server(system.simulator(), net, server_data, registry, 0, stream, factory);
  server.subscribe(handheld_data);
  server.subscribe(laptop_data);
  video::VideoClient handheld(system.simulator(), net, handheld_data, "handheld", registry, 1,
                              factory);
  video::VideoClient laptop(system.simulator(), net, laptop_data, "laptop", registry, 2, factory);

  system.attach_process(0, server.process(), /*stage=*/0);
  system.attach_process(1, handheld.process(), /*stage=*/1);
  system.attach_process(2, laptop.process(), /*stage=*/1);
  system.finalize();
  system.set_current_configuration(config::Configuration{});  // no FEC installed

  server.start();
  system.simulator().run_until(sim::seconds(2));
  std::printf("clean channel, no FEC: emitted=%llu, handheld missing=%llu\n",
              static_cast<unsigned long long>(server.packets_emitted()),
              static_cast<unsigned long long>(
                  handheld.sink().missing(server.packets_emitted())));

  // The environment degrades: 8%% loss appears on both data channels.
  lossy.loss_probability = 0.08;
  net.connect(server_data, handheld_data, lossy);
  net.connect(server_data, laptop_data, lossy);
  const std::uint64_t emitted_at_degrade = server.packets_emitted();
  system.simulator().run_until(sim::seconds(4));
  const std::uint64_t lost_unprotected =
      handheld.sink().missing(server.packets_emitted()) -
      handheld.sink().missing(emitted_at_degrade);
  std::printf("lossy channel, no FEC: %llu packets lost in 2s at the hand-held\n",
              static_cast<unsigned long long>(lost_unprotected));

  // Adapt: install the FEC set. Watch the plan order decoders before encoder.
  std::optional<proto::AdaptationResult> result;
  const auto with_fec = config::Configuration::of(system.registry(), {"FecE", "FecH", "FecL"});
  system.request_adaptation(with_fec,
                            [&result](const proto::AdaptationResult& r) { result = r; });
  while (!result && system.simulator().step()) {
  }
  std::printf("\nadaptation: %s via ", std::string(proto::to_string(result->outcome)).c_str());
  for (const auto& record : system.manager().step_log()) {
    std::printf("%s ", record.action_name.c_str());
  }
  std::printf("\n(the invariant forces the decoders in before the encoder)\n\n");

  const std::uint64_t emitted_at_fec = server.packets_emitted();
  const std::uint64_t missing_at_fec = handheld.sink().missing(emitted_at_fec);
  system.simulator().run_until(system.simulator().now() + sim::seconds(4));
  server.stop();
  system.simulator().run_until(system.simulator().now() + sim::seconds(1));

  const std::uint64_t lost_protected =
      handheld.sink().missing(server.packets_emitted()) - missing_at_fec;
  const auto handheld_fec = handheld.chain().has_filter("FecH")
                                ? handheld.chain().refract().at("filters")
                                : "(none)";
  std::printf("lossy channel with FEC: %llu packets lost in 4s at the hand-held\n",
              static_cast<unsigned long long>(lost_protected));
  std::printf("hand-held chain: [%s]; corrupted=%llu undecodable=%llu\n", handheld_fec.c_str(),
              static_cast<unsigned long long>(handheld.player_stats().corrupted),
              static_cast<unsigned long long>(handheld.player_stats().undecodable));
  std::printf("\nFEC recovers every single-loss group: loss rate drops by roughly "
              "the group-loss factor while the stream never glitched during insertion.\n");
  return result->outcome == proto::AdaptationOutcome::Success ? 0 : 1;
}
