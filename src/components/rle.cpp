#include "components/rle.hpp"

#include <cstddef>
#include <cstring>

namespace sa::components {

void RleCompressFilter::process_span(std::span<PacketRef> batch, PacketSink& sink) {
  for (PacketRef& ref : batch) {
    const std::span<const std::uint8_t> in = ref.payload();
    bytes_in_ += in.size();
    // Worst case (no two adjacent bytes equal) is one (count, byte) pair per
    // input byte; over-allocating from the bump arena is cheaper than a
    // sizing pre-pass.
    std::uint8_t* out = sink.arena().alloc(in.size() * 2);
    std::size_t n = 0;
    std::size_t i = 0;
    while (i < in.size()) {
      const std::uint8_t byte = in[i];
      std::size_t run = 1;
      while (i + run < in.size() && in[i + run] == byte && run < 255) ++run;
      out[n++] = static_cast<std::uint8_t>(run);
      out[n++] = byte;
      i += run;
    }
    bytes_out_ += n;
    ref.rebind(out, static_cast<std::uint32_t>(n));
    ref.tags().push_back(kTagRle);
    note_processed();
    sink.emit(ref);
  }
}

void RleDecompressFilter::process_span(std::span<PacketRef> batch, PacketSink& sink) {
  for (PacketRef& ref : batch) {
    if (ref.tags().empty() || ref.tags().back() != kTagRle) {
      note_bypassed();
      sink.emit(ref);
      continue;
    }
    const std::span<const std::uint8_t> in = ref.payload();
    // One validating scan also yields the exact output size.
    std::size_t total = 0;
    bool malformed = in.size() % 2 != 0;
    if (!malformed) {
      for (std::size_t i = 0; i < in.size(); i += 2) {
        if (in[i] == 0) {
          malformed = true;
          break;
        }
        total += in[i];
      }
    }
    if (malformed) {
      note_dropped();
      continue;
    }
    std::uint8_t* out = sink.arena().alloc(total);
    std::size_t n = 0;
    for (std::size_t i = 0; i < in.size(); i += 2) {
      std::memset(out + n, in[i + 1], in[i]);
      n += in[i];
    }
    ref.rebind(out, static_cast<std::uint32_t>(total));
    ref.tags().pop_back();
    note_processed();
    sink.emit(ref);
  }
}

}  // namespace sa::components
