#include "baselines/quiescence.hpp"

#include <climits>
#include <stdexcept>

#include "util/log.hpp"

namespace sa::baselines {

GlobalQuiescenceAdapter::GlobalQuiescenceAdapter(
    runtime::Clock& clock, const config::ComponentRegistry& registry,
    std::map<config::ProcessId, ProcessBinding> bindings, runtime::Time flush_delay)
    : clock_(&clock), registry_(&registry), bindings_(std::move(bindings)),
      flush_delay_(flush_delay) {}

void GlobalQuiescenceAdapter::adapt(const config::Configuration& from,
                                    const config::Configuration& to,
                                    std::function<void(bool)> done) {
  if (in_progress_) throw std::logic_error("global quiescence adaptation already in progress");
  in_progress_ = true;
  from_ = from;
  to_ = to;
  done_ = std::move(done);
  quiescent_count_ = 0;
  started_ = clock_->now();

  // Phase 1 — passivate the sender side: every minimum-stage process stops
  // initiating new transactions (blocks after its in-flight packet).
  min_stage_ = INT_MAX;
  for (const auto& [process, binding] : bindings_) min_stage_ = std::min(min_stage_, binding.stage);
  std::size_t senders = 0;
  for (const auto& [process, binding] : bindings_) {
    if (binding.stage == min_stage_) ++senders;
  }
  sender_count_ = senders;
  for (auto& [process, binding] : bindings_) {
    if (binding.stage != min_stage_) continue;
    binding.chain->request_quiescence([this] {
      if (++quiescent_count_ == sender_count_) quiesce_receivers();
    }, components::FilterChain::QuiescenceMode::Packet);
  }
  if (sender_count_ == 0) quiesce_receivers();
}

void GlobalQuiescenceAdapter::quiesce_receivers() {
  // Phase 2 — after in-flight data has reached the receivers, drain and
  // block every remaining process, involved in the change or not.
  clock_->schedule_after(flush_delay_, [this] {
    std::size_t receivers = 0;
    for (const auto& [process, binding] : bindings_) {
      if (binding.stage != min_stage_) ++receivers;
    }
    if (receivers == 0) {
      apply_and_resume();
      return;
    }
    quiescent_count_ = 0;
    receiver_count_ = receivers;
    for (auto& [process, binding] : bindings_) {
      if (binding.stage == min_stage_) continue;
      binding.chain->request_quiescence([this] {
        if (++quiescent_count_ == receiver_count_) apply_and_resume();
      }, components::FilterChain::QuiescenceMode::Drain);
    }
  });
}

void GlobalQuiescenceAdapter::apply_and_resume() {
  const config::Configuration removed = from_.minus(to_);
  const config::Configuration added = to_.minus(from_);
  bool ok = true;
  for (auto& [process, binding] : bindings_) {
    const config::Configuration hosted = config::Configuration::hosted_by(*registry_, process);
    for (const std::string& name : removed.intersect(hosted).names(*registry_)) {
      if (!binding.chain->remove_filter(name)) ok = false;
    }
    for (const std::string& name : added.intersect(hosted).names(*registry_)) {
      components::FilterPtr filter = binding.factory ? binding.factory(name) : nullptr;
      if (!filter) {
        ok = false;
        continue;
      }
      binding.chain->append_filter(std::move(filter));
    }
  }
  for (auto& [process, binding] : bindings_) binding.chain->resume();
  last_blocked_duration_ = clock_->now() - started_;
  in_progress_ = false;
  if (done_) {
    auto handler = std::move(done_);
    done_ = nullptr;
    handler(ok);
  }
}

}  // namespace sa::baselines
