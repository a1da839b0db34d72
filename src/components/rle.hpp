// Run-length-encoding codec filters — the "compression" filter family the
// paper lists alongside encryption and FEC as MetaSocket stream manipulators.
//
// Format: a sequence of (count, byte) pairs, count in [1, 255]. Encoding is
// applied unconditionally and tagged "rle"; whether it shrinks the payload
// depends on the content (synthetic video with run-structured payloads
// compresses well, random payloads expand by ~2x — both are valid workloads
// for adaptation experiments that trade CPU for bandwidth).
#pragma once

#include "components/filter.hpp"

namespace sa::components {

inline constexpr const char* kTagRle = "rle";

class RleCompressFilter final : public Filter {
 public:
  explicit RleCompressFilter(std::string name, runtime::Time processing_time = runtime::us(40))
      : Filter(std::move(name), processing_time) {}

  /// Encodes straight into arena storage (worst case 2x the input for
  /// alternating bytes) and rebinds the ref to it.
  void process_span(std::span<PacketRef> batch, PacketSink& sink) override;

  /// Observed compression ratio (output/input); > 1 means expansion.
  double ratio() const {
    return bytes_in_ == 0 ? 1.0
                          : static_cast<double>(bytes_out_) / static_cast<double>(bytes_in_);
  }

  StateSnapshot refract() const override {
    auto snapshot = Filter::refract();
    snapshot["bytes_in"] = std::to_string(bytes_in_);
    snapshot["bytes_out"] = std::to_string(bytes_out_);
    return snapshot;
  }

 private:
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
};

class RleDecompressFilter final : public Filter {
 public:
  explicit RleDecompressFilter(std::string name, runtime::Time processing_time = runtime::us(40))
      : Filter(std::move(name), processing_time) {}

  /// Validates and sizes the output in one scan of the (count, byte) pairs,
  /// decodes into arena storage, rebinds. Packets without a top "rle" tag
  /// bypass (the same ref, untouched); malformed payloads — odd length or a
  /// zero run count — are dropped (not emitted).
  void process_span(std::span<PacketRef> batch, PacketSink& sink) override;
};

}  // namespace sa::components
