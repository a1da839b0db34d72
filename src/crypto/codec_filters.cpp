#include "crypto/codec_filters.hpp"

namespace sa::crypto {

std::string_view scheme_tag(Scheme scheme) {
  return scheme == Scheme::Des64 ? kTagDes64 : kTagDes128;
}

DesEncoderFilter::DesEncoderFilter(std::string name, Scheme scheme, DesKeys keys,
                                   runtime::Time processing_time)
    : Filter(std::move(name), processing_time),
      scheme_(scheme),
      des64_(keys.key64),
      des128_(keys.key128a, keys.key128b) {}

void DesEncoderFilter::process_span(std::span<components::PacketRef> batch,
                                    components::PacketSink& sink) {
  const std::string_view tag = scheme_tag(scheme_);
  for (components::PacketRef& ref : batch) {
    // Pad + encrypt straight into a fresh arena buffer; the old plaintext
    // bytes are left behind in the arena (reclaimed at the next reset).
    if (scheme_ == Scheme::Des64) {
      const std::size_t out_size = Des64Cipher::padded_size(ref.size());
      std::uint8_t* out = sink.arena().alloc(out_size);
      des64_.encrypt_into(ref.payload(), out);
      ref.rebind(out, static_cast<std::uint32_t>(out_size));
    } else {
      const std::size_t out_size = Des128Cipher::padded_size(ref.size());
      std::uint8_t* out = sink.arena().alloc(out_size);
      des128_.encrypt_into(ref.payload(), out);
      ref.rebind(out, static_cast<std::uint32_t>(out_size));
    }
    ref.tags().push_back(tag);
    note_processed();
    sink.emit(ref);
  }
}

components::StateSnapshot DesEncoderFilter::refract() const {
  auto snapshot = Filter::refract();
  snapshot["scheme"] = std::string(scheme_tag(scheme_));
  snapshot["role"] = "encoder";
  return snapshot;
}

DesDecoderFilter::DesDecoderFilter(std::string name, bool accept64, bool accept128, DesKeys keys,
                                   runtime::Time processing_time)
    : Filter(std::move(name), processing_time),
      accept64_(accept64),
      accept128_(accept128),
      des64_(keys.key64),
      des128_(keys.key128a, keys.key128b) {}

void DesDecoderFilter::process_span(std::span<components::PacketRef> batch,
                                    components::PacketSink& sink) {
  for (components::PacketRef& ref : batch) {
    if (!ref.tags().empty()) {
      const std::string_view tag = ref.tags().back();
      // Ciphertext is block-aligned by construction; decrypt in place and
      // truncate past the stripped padding — zero allocation, zero copy.
      if (tag == kTagDes64 && accept64_ && ref.size() % 8 == 0) {
        const std::size_t stripped = des64_.decrypt_inplace(ref.data(), ref.size());
        ref.truncate(static_cast<std::uint32_t>(stripped));
        ref.tags().pop_back();
        note_processed();
        sink.emit(ref);
        continue;
      }
      if (tag == kTagDes128 && accept128_ && ref.size() % 8 == 0) {
        const std::size_t stripped = des128_.decrypt_inplace(ref.data(), ref.size());
        ref.truncate(static_cast<std::uint32_t>(stripped));
        ref.tags().pop_back();
        note_processed();
        sink.emit(ref);
        continue;
      }
    }
    note_bypassed();
    sink.emit(ref);
  }
}

components::StateSnapshot DesDecoderFilter::refract() const {
  auto snapshot = Filter::refract();
  snapshot["accepts"] = std::string(accept64_ ? kTagDes64 : "") +
                        (accept64_ && accept128_ ? "," : "") +
                        std::string(accept128_ ? kTagDes128 : "");
  snapshot["role"] = "decoder";
  return snapshot;
}

components::FilterPtr make_encoder_e1(DesKeys keys) {
  return std::make_shared<DesEncoderFilter>("E1", Scheme::Des64, keys);
}

components::FilterPtr make_encoder_e2(DesKeys keys) {
  return std::make_shared<DesEncoderFilter>("E2", Scheme::Des128, keys);
}

components::FilterPtr make_decoder(const std::string& name, bool accept64, bool accept128,
                                   DesKeys keys) {
  return std::make_shared<DesDecoderFilter>(name, accept64, accept128, keys);
}

}  // namespace sa::crypto
