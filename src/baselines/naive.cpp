#include "baselines/naive.hpp"

#include "util/log.hpp"

namespace sa::baselines {

NaiveHotSwapAdapter::NaiveHotSwapAdapter(runtime::Clock& clock,
                                         const config::ComponentRegistry& registry,
                                         std::map<config::ProcessId, ProcessBinding> bindings,
                                         runtime::Time per_process_lag)
    : clock_(&clock), registry_(&registry), bindings_(std::move(bindings)),
      per_process_lag_(per_process_lag) {}

bool NaiveHotSwapAdapter::adapt(const config::Configuration& from,
                                const config::Configuration& to) {
  const std::size_t n = registry_->size();
  const config::Configuration removed = from.minus(to);
  const config::Configuration added = to.minus(from);

  // Validate up front that every added component is instantiable.
  for (const config::ComponentId id : added.components(n)) {
    const auto it = bindings_.find(registry_->process(id));
    if (it == bindings_.end() || !it->second.factory ||
        !it->second.factory(registry_->name(id))) {
      return false;
    }
  }

  runtime::Time lag = 0;
  for (auto& [process, binding] : bindings_) {
    const config::Configuration hosted = config::Configuration::hosted_by(*registry_, process);
    const std::vector<std::string> to_remove = removed.intersect(hosted).names(*registry_);
    const std::vector<std::string> to_add = added.intersect(hosted).names(*registry_);
    if (to_remove.empty() && to_add.empty()) continue;

    // Each process swaps when its command arrives — staggered, uncoordinated,
    // and without waiting for quiescence.
    components::FilterChain* chain = binding.chain;
    proto::FilterFactory factory = binding.factory;
    clock_->schedule_after(lag, [chain, factory, to_remove, to_add] {
      for (const std::string& name : to_remove) {
        if (!chain->remove_filter(name)) {
          SA_WARN("naive-baseline") << chain->name() << ": filter " << name << " absent";
        }
      }
      for (const std::string& name : to_add) {
        chain->append_filter(factory(name));
      }
    });
    lag += per_process_lag_;
  }
  return true;
}

}  // namespace sa::baselines
