// Filters: stream-processing components composed into MetaSocket chains
// (paper §2, §5).  Encoders, decoders, compressors, FEC, etc. all share this
// invocation interface; the crypto library provides the DES codec filters the
// paper's case study uses.
//
// A filter has exactly one invocation method, process_span(batch, sink): it
// receives a span of arena-backed PacketRef views and emits its outputs
// (zero, one, or many per input) to the sink. The bypass rule forwards the
// SAME ref — no payload bytes are touched or copied. FilterChain drives every
// filter through it: process_batch with whole batches, and the clock-scheduled
// submit path with batches of one.
#pragma once

#include <memory>
#include <span>

#include "components/arena.hpp"
#include "components/component.hpp"
#include "components/packet.hpp"
#include "runtime/time.hpp"

namespace sa::components {

struct FilterStats {
  std::uint64_t processed = 0;
  std::uint64_t bypassed = 0;  ///< forwarded untouched per the bypass rule
  std::uint64_t dropped = 0;
};

class Filter : public Component {
 public:
  Filter(std::string name, runtime::Time processing_time = runtime::us(50))
      : Component(std::move(name)), processing_time_(processing_time) {}

  /// The invocation interface. Transforms every packet in `batch`, emitting
  /// outputs to `sink` in order (outputs of batch[i] before outputs of
  /// batch[i+1]); not emitting an input drops it. Payloads live in the sink's
  /// arena: transformed payloads are allocated there, and bypassed packets
  /// MUST forward the input ref unchanged (zero-copy bypass). Implementations
  /// record what they did per input via note_processed() / note_bypassed() /
  /// note_dropped().
  virtual void process_span(std::span<PacketRef> batch, PacketSink& sink) = 0;

  /// Virtual time one packet spends inside this filter.
  runtime::Time processing_time() const { return processing_time_; }
  void set_processing_time(runtime::Time t) { processing_time_ = t; }

  const FilterStats& stats() const { return stats_; }

  StateSnapshot refract() const override;

 protected:
  void note_processed() { ++stats_.processed; }
  void note_bypassed() { ++stats_.bypassed; }
  void note_dropped() { ++stats_.dropped; }

 private:
  runtime::Time processing_time_;
  FilterStats stats_;
};

using FilterPtr = std::shared_ptr<Filter>;

/// Identity filter; useful in tests and as chain padding.
class PassThroughFilter final : public Filter {
 public:
  explicit PassThroughFilter(std::string name, runtime::Time processing_time = runtime::us(10))
      : Filter(std::move(name), processing_time) {}

  void process_span(std::span<PacketRef> batch, PacketSink& sink) override {
    for (PacketRef& ref : batch) {
      note_processed();
      sink.emit(ref);
    }
  }
};

/// Tags packets with a label (a stand-in for compression/FEC encoders when a
/// test needs a recognizable multi-filter chain).
class TagFilter final : public Filter {
 public:
  TagFilter(std::string name, std::string tag, runtime::Time processing_time = runtime::us(20))
      : Filter(std::move(name), processing_time), tag_(std::move(tag)) {}

  void process_span(std::span<PacketRef> batch, PacketSink& sink) override {
    for (PacketRef& ref : batch) {
      ref.tags().push_back(tag_);
      note_processed();
      sink.emit(ref);
    }
  }

  StateSnapshot refract() const override {
    auto snapshot = Filter::refract();
    snapshot["tag"] = tag_;
    return snapshot;
  }

 private:
  std::string tag_;
};

/// Pops a matching tag; bypasses otherwise (paper's bypass rule).
class UntagFilter final : public Filter {
 public:
  UntagFilter(std::string name, std::string tag, runtime::Time processing_time = runtime::us(20))
      : Filter(std::move(name), processing_time), tag_(std::move(tag)) {}

  void process_span(std::span<PacketRef> batch, PacketSink& sink) override {
    for (PacketRef& ref : batch) {
      if (!ref.tags().empty() && ref.tags().back() == tag_) {
        ref.tags().pop_back();
        note_processed();
      } else {
        note_bypassed();
      }
      sink.emit(ref);
    }
  }

 private:
  std::string tag_;
};

}  // namespace sa::components
