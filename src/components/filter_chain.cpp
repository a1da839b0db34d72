#include "components/filter_chain.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"

namespace sa::components {

FilterChain::FilterChain(runtime::Clock& clock, std::string name, runtime::Time per_packet_overhead)
    : Component(std::move(name)), clock_(&clock), per_packet_overhead_(per_packet_overhead) {}

void FilterChain::insert_filter(std::size_t index, FilterPtr filter) {
  if (!filter) throw std::invalid_argument("insert_filter: null filter");
  if (has_filter(filter->name())) {
    throw std::invalid_argument("duplicate filter name in chain: " + filter->name());
  }
  index = std::min(index, filters_.size());
  filters_.insert(filters_.begin() + static_cast<std::ptrdiff_t>(index), std::move(filter));
}

FilterPtr FilterChain::remove_filter(const std::string& filter_name) {
  const auto it = std::find_if(filters_.begin(), filters_.end(),
                               [&](const FilterPtr& f) { return f->name() == filter_name; });
  if (it == filters_.end()) return nullptr;
  FilterPtr removed = *it;
  filters_.erase(it);
  return removed;
}

FilterPtr FilterChain::replace_filter(const std::string& old_name, FilterPtr replacement) {
  if (!replacement) throw std::invalid_argument("replace_filter: null replacement");
  const auto it = std::find_if(filters_.begin(), filters_.end(),
                               [&](const FilterPtr& f) { return f->name() == old_name; });
  if (it == filters_.end()) return nullptr;
  FilterPtr old = *it;
  *it = std::move(replacement);
  return old;
}

bool FilterChain::has_filter(const std::string& filter_name) const {
  return std::any_of(filters_.begin(), filters_.end(),
                     [&](const FilterPtr& f) { return f->name() == filter_name; });
}

std::vector<std::string> FilterChain::filter_names() const {
  std::vector<std::string> names;
  names.reserve(filters_.size());
  for (const FilterPtr& filter : filters_) names.push_back(filter->name());
  return names;
}

void FilterChain::submit(Packet packet) {
  ++stats_.submitted;
  queue_.push_back(Pending{std::move(packet), clock_->now()});
  maybe_start_next();
}

std::size_t FilterChain::process_batch(std::span<PacketRef> batch, PacketSink& sink) {
  if (blocked_) {
    throw std::logic_error("process_batch on blocked chain " + name() +
                           " (pump must park at batch boundaries)");
  }
  busy_ = true;
  ++stats_.batches;
  stats_.submitted += batch.size();

  // One virtual-time accounting pass per batch — the submit path charges
  // this same sum once per packet.
  runtime::Time duration = per_packet_overhead_;
  for (const FilterPtr& filter : filters_) duration += filter->processing_time();
  stats_.batch_virtual_time += duration;

  const std::span<PacketRef> survivors = run_stages(batch, sink.arena());
  stats_.delivered += survivors.size();
  for (PacketRef& ref : survivors) sink.emit(ref);

  busy_ = false;
  // §5.2 at batch granularity: a request that arrived mid-batch takes effect
  // now that the critical segment (the batch) is complete.
  if (resetting_ && (quiescence_mode_ == QuiescenceMode::Packet || queue_.empty())) {
    block_and_notify();
  }
  return survivors.size();
}

std::span<PacketRef> FilterChain::run_stages(std::span<PacketRef> batch, PacketArena& arena) {
  batch_scratch_in_.assign(batch.begin(), batch.end());
  for (const FilterPtr& filter : filters_) {
    batch_scratch_out_.clear();
    VectorSink stage(arena, batch_scratch_out_);
    filter->process_span(batch_scratch_in_, stage);
    if (batch_scratch_out_.size() < batch_scratch_in_.size()) {
      stats_.dropped_by_filters += batch_scratch_in_.size() - batch_scratch_out_.size();
    }
    batch_scratch_in_.swap(batch_scratch_out_);
    if (batch_scratch_in_.empty()) break;
  }
  return batch_scratch_in_;
}

void FilterChain::request_quiescence(QuiescenceHandler on_quiescent, QuiescenceMode mode) {
  if (resetting_) throw std::logic_error("quiescence request already pending on " + name());
  resetting_ = true;
  quiescence_mode_ = mode;
  on_quiescent_ = std::move(on_quiescent);
  if (!busy_ && (mode == QuiescenceMode::Packet || queue_.empty())) {
    block_and_notify();
  }
}

void FilterChain::block_and_notify() {
  blocked_ = true;
  resetting_ = false;
  if (on_quiescent_) {
    auto handler = std::move(on_quiescent_);
    on_quiescent_ = nullptr;
    handler();
  }
}

void FilterChain::cancel_quiescence() {
  resetting_ = false;
  on_quiescent_ = nullptr;
  if (blocked_) resume();
}

void FilterChain::resume() {
  blocked_ = false;
  maybe_start_next();
}

void FilterChain::maybe_start_next() {
  if (busy_ || blocked_) return;
  if (resetting_ &&
      (quiescence_mode_ == QuiescenceMode::Packet || queue_.empty())) {
    // Packet mode blocks before taking another packet; Drain mode blocks
    // only once the queue has been worked off.
    block_and_notify();
    return;
  }
  if (queue_.empty()) return;
  busy_ = true;
  Pending pending = std::move(queue_.front());
  queue_.pop_front();

  runtime::Time duration = per_packet_overhead_;
  for (const FilterPtr& filter : filters_) duration += filter->processing_time();

  clock_->schedule_after(duration, [this, pending = std::move(pending)] {
    finish_packet(pending.packet, pending.entry_time);
  });
}

void FilterChain::finish_packet(const Packet& packet, runtime::Time entry_time) {
  // A batch of one through the shared stage loop. Filters see the packet only
  // now, at completion time, which is equivalent to traversal-at-exit and
  // keeps the event count low. The owning Packet is the transport form, so
  // it is copied into the chain's arena on entry and out again on exit.
  arena_.reset();
  PacketRef ref = arena_.adopt(packet);
  const std::span<PacketRef> survivors = run_stages({&ref, 1}, arena_);
  if (!survivors.empty()) {
    const runtime::Time delay = clock_->now() - entry_time;
    stats_.total_delay += delay;
    stats_.max_delay = std::max(stats_.max_delay, delay);
    for (const PacketRef& out : survivors) {
      ++stats_.delivered;
      if (output_) output_(out.to_packet());
    }
  }

  busy_ = false;
  maybe_start_next();
}

StateSnapshot FilterChain::refract() const {
  auto snapshot = Component::refract();
  snapshot["filters"] = [this] {
    std::string joined;
    for (const FilterPtr& filter : filters_) {
      if (!joined.empty()) joined += ",";
      joined += filter->name();
    }
    return joined;
  }();
  snapshot["busy"] = busy_ ? "1" : "0";
  snapshot["blocked"] = blocked_ ? "1" : "0";
  snapshot["queued"] = std::to_string(queue_.size());
  snapshot["submitted"] = std::to_string(stats_.submitted);
  snapshot["delivered"] = std::to_string(stats_.delivered);
  return snapshot;
}

bool FilterChain::transmute(const std::string& key, const std::string& value) {
  if (key == "remove_filter") return remove_filter(value) != nullptr;
  if (key == "blocked") {
    if (value == "0") {
      resume();
      return true;
    }
    if (value == "1") {
      blocked_ = true;
      return true;
    }
    return false;
  }
  return Component::transmute(key, value);
}

}  // namespace sa::components
