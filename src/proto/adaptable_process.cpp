#include "proto/adaptable_process.hpp"

#include "util/log.hpp"

namespace sa::proto {

FilterChainProcess::FilterChainProcess(components::FilterChain& chain,
                                       const config::ComponentRegistry& registry,
                                       config::ProcessId process, FilterFactory factory)
    : chain_(&chain), registry_(&registry), process_(process), factory_(std::move(factory)) {}

bool FilterChainProcess::prepare(const LocalCommand& command) {
  // Masks arrive off the wire: refuse a component this process does not host.
  const config::Configuration hosted = config::Configuration::hosted_by(*registry_, process_);
  if (!command.remove.minus(hosted).empty() || !command.add.minus(hosted).empty()) return false;
  // Instantiate every component the in-action will insert. New components
  // stay staged (and blocked, in the paper's terms) until apply().
  for (const std::string& name : command.add.names(*registry_)) {
    if (staged_.contains(name) || chain_->has_filter(name)) return false;
    components::FilterPtr filter = factory_ ? factory_(name) : nullptr;
    if (!filter) {
      SA_WARN("process") << chain_->name() << ": cannot instantiate component " << name;
      staged_.clear();
      return false;
    }
    staged_.emplace(name, std::move(filter));
  }
  // Everything slated for removal must actually be present.
  for (const std::string& name : command.remove.names(*registry_)) {
    if (!chain_->has_filter(name)) {
      staged_.clear();
      return false;
    }
  }
  return true;
}

void FilterChainProcess::reach_safe_state(bool drain, std::function<void()> reached) {
  chain_->request_quiescence(std::move(reached),
                             drain ? components::FilterChain::QuiescenceMode::Drain
                                   : components::FilterChain::QuiescenceMode::Packet);
}

void FilterChainProcess::abort_safe_state() {
  chain_->cancel_quiescence();
  staged_.clear();
}

bool FilterChainProcess::apply(const LocalCommand& command) {
  removed_.clear();
  const std::vector<std::string> removes = command.remove.names(*registry_);
  const std::vector<std::string> adds = command.add.names(*registry_);
  // Single-for-single commands replace in place to preserve chain position
  // (a decoder swap must not move relative to other filters), and offer the
  // successor the predecessor's internal state — both are quiescent here.
  if (removes.size() == 1 && adds.size() == 1) {
    const auto it = staged_.find(adds.front());
    if (it == staged_.end()) return false;
    components::FilterPtr replacement = it->second;
    components::FilterPtr old = chain_->replace_filter(removes.front(), replacement);
    if (!old) return false;
    replacement->adopt_state(*old);
    removed_.emplace(removes.front(), std::move(old));
    staged_.erase(it);
    return true;
  }
  for (const std::string& name : removes) {
    components::FilterPtr old = chain_->remove_filter(name);
    if (!old) return false;
    removed_.emplace(name, std::move(old));
  }
  for (const std::string& name : adds) {
    const auto it = staged_.find(name);
    if (it == staged_.end()) return false;
    chain_->append_filter(it->second);
    staged_.erase(it);
  }
  return true;
}

bool FilterChainProcess::undo(const LocalCommand& command) {
  // Reverse apply(): pull the added filters back out, put the removed ones
  // back, preserving the in-place position for 1-for-1 replacements. The
  // discarded new components are simply destroyed (they never ran unblocked).
  const std::vector<std::string> removes = command.remove.names(*registry_);
  const std::vector<std::string> adds = command.add.names(*registry_);
  if (removes.size() == 1 && adds.size() == 1) {
    const auto it = removed_.find(removes.front());
    if (it == removed_.end()) return false;
    if (!chain_->replace_filter(adds.front(), it->second)) return false;
    removed_.clear();
    staged_.clear();
    return true;
  }
  for (const std::string& name : adds) {
    chain_->remove_filter(name);
  }
  for (auto& [name, filter] : removed_) {
    chain_->append_filter(std::move(filter));
  }
  removed_.clear();
  staged_.clear();
  return true;
}

void FilterChainProcess::resume() { chain_->resume(); }

void FilterChainProcess::cleanup(const LocalCommand&) {
  // Post-action: drop any unused staged components. The filters removed by
  // the in-action are retained until the next apply() so that a compensating
  // rollback (sole-participant resume raced by a manager abort) can still
  // undo the step; apply() clears them.
  staged_.clear();
}

}  // namespace sa::proto
