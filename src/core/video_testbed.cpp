#include "core/video_testbed.hpp"

#include <algorithm>
#include <map>

namespace sa::core {

VideoTestbed::VideoTestbed(TestbedConfig config) : config_(config) {
  system_ = config_.runtime != nullptr
                ? std::make_unique<SafeAdaptationSystem>(*config_.runtime, config_.system)
                : std::make_unique<SafeAdaptationSystem>(config_.system);
  configure_paper_system(*system_, config_.action_set);

  runtime::Clock& clock = system_->runtime().clock();
  runtime::Transport& net = system_->runtime().transport();
  server_data_ = net.add_node("server-data");
  handheld_data_ = net.add_node("handheld-data");
  laptop_data_ = net.add_node("laptop-data");
  net.connect(server_data_, handheld_data_, config_.data_channel);
  net.connect(server_data_, laptop_data_, config_.data_channel);

  const auto factory = paper_filter_factory(config_.keys);
  server_ =
      std::make_unique<video::VideoServer>(clock, net, server_data_, config_.stream, factory);
  server_->subscribe(handheld_data_);
  server_->subscribe(laptop_data_);
  handheld_ = std::make_unique<video::VideoClient>(clock, net, handheld_data_, "handheld", factory);
  laptop_ = std::make_unique<video::VideoClient>(clock, net, laptop_data_, "laptop", factory);

  // Initial composition = the paper's source configuration.
  const config::ComponentRegistry& registry = system_->registry();
  const std::map<config::ProcessId, components::FilterChain*> chains{
      {kServerProcess, &server_->chain()},
      {kHandheldProcess, &handheld_->chain()},
      {kLaptopProcess, &laptop_->chain()}};
  for (const config::ComponentId id : source().components(registry.size())) {
    chains.at(registry.process(id))->append_filter(factory(registry.name(id)));
  }

  const auto& stage = paper_stages();
  system_->attach_process(kServerProcess, server_->process(), stage.at(kServerProcess));
  if (config_.frame_aligned_clients) {
    // §7 safe-state derivation: a frame's packets are a keyed critical
    // communication segment; the agent only blocks a client on a frame
    // boundary. Events come from the decoded-packet stream.
    const std::uint32_t ppf = std::max(1u, config_.stream.packets_per_frame);
    const auto install = [ppf](video::VideoClient& client,
                               spec::SafeStateMonitor& monitor) {
      monitor.declare_segment({"frame", "frame_start", "frame_end", /*keyed=*/true});
      client.set_packet_observer([ppf, &monitor](const components::Packet& packet) {
        const std::uint64_t frame = packet.sequence / ppf;
        const std::uint64_t position = packet.sequence % ppf;
        if (position == 0) monitor.on_event("frame_start", frame);
        if (position == ppf - 1) monitor.on_event("frame_end", frame);
      });
    };
    handheld_monitor_ = std::make_unique<spec::SafeStateMonitor>();
    laptop_monitor_ = std::make_unique<spec::SafeStateMonitor>();
    install(*handheld_, *handheld_monitor_);
    install(*laptop_, *laptop_monitor_);
    handheld_monitored_ =
        std::make_unique<spec::MonitoredProcess>(handheld_->process(), *handheld_monitor_);
    laptop_monitored_ =
        std::make_unique<spec::MonitoredProcess>(laptop_->process(), *laptop_monitor_);
    system_->attach_process(kHandheldProcess, *handheld_monitored_, stage.at(kHandheldProcess));
    system_->attach_process(kLaptopProcess, *laptop_monitored_, stage.at(kLaptopProcess));
  } else {
    system_->attach_process(kHandheldProcess, handheld_->process(), stage.at(kHandheldProcess));
    system_->attach_process(kLaptopProcess, laptop_->process(), stage.at(kLaptopProcess));
  }
  system_->finalize();
  system_->set_current_configuration(source());
}

config::Configuration VideoTestbed::installed_configuration() const {
  const auto& registry = system_->registry();
  config::Configuration installed;
  const auto scan = [&](const components::FilterChain& chain) {
    for (const std::string& name : chain.filter_names()) {
      if (const auto id = registry.find(name)) installed = installed.with(*id);
    }
  };
  scan(server_->chain());
  scan(handheld_->chain());
  scan(laptop_->chain());
  return installed;
}

std::uint64_t VideoTestbed::total_intact() const {
  return handheld_->player_stats().intact + laptop_->player_stats().intact;
}

std::uint64_t VideoTestbed::total_corrupted() const {
  return handheld_->player_stats().corrupted + laptop_->player_stats().corrupted;
}

std::uint64_t VideoTestbed::total_undecodable() const {
  return handheld_->player_stats().undecodable + laptop_->player_stats().undecodable;
}

}  // namespace sa::core
