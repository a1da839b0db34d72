#include "components/fec.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <optional>

#include "util/log.hpp"

namespace sa::components {

namespace {

constexpr std::string_view kDataPrefix = "fec:";
constexpr std::string_view kParityPrefix = "fec-parity:";

void xor_into(Payload& accumulator, std::span<const std::uint8_t> payload) {
  if (accumulator.size() < payload.size()) accumulator.resize(payload.size(), 0);
  for (std::size_t i = 0; i < payload.size(); ++i) accumulator[i] ^= payload[i];
}

/// Formats "fec:<group>" into `buf` (allocation-free for the batched path).
std::string_view format_data_tag(char (&buf)[48], std::uint64_t group) {
  std::memcpy(buf, kDataPrefix.data(), kDataPrefix.size());
  const auto r = std::to_chars(buf + kDataPrefix.size(), buf + sizeof(buf), group);
  return {buf, static_cast<std::size_t>(r.ptr - buf)};
}

/// Formats "fec-parity:<group>:<k>" into `buf`.
std::string_view format_parity_tag(char (&buf)[48], std::uint64_t group, std::size_t k) {
  std::memcpy(buf, kParityPrefix.data(), kParityPrefix.size());
  char* p = buf + kParityPrefix.size();
  p = std::to_chars(p, buf + sizeof(buf) - 1, group).ptr;  // room for ':'
  *p++ = ':';
  p = std::to_chars(p, buf + sizeof(buf), k).ptr;
  return {buf, static_cast<std::size_t>(p - buf)};
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

/// "fec:<group>" -> group id.
std::optional<std::uint64_t> parse_data_tag(std::string_view tag) {
  if (!tag.starts_with(kDataPrefix)) return std::nullopt;
  return parse_u64(tag.substr(kDataPrefix.size()));
}

/// "fec-parity:<group>:<k>" -> (group, k).
std::optional<std::pair<std::uint64_t, std::size_t>> parse_parity_tag(std::string_view tag) {
  if (!tag.starts_with(kParityPrefix)) return std::nullopt;
  const std::string_view rest = tag.substr(kParityPrefix.size());
  const std::size_t colon = rest.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto group = parse_u64(rest.substr(0, colon));
  const auto k = parse_u64(rest.substr(colon + 1));
  if (!group || !k) return std::nullopt;
  return std::make_pair(*group, static_cast<std::size_t>(*k));
}

}  // namespace

// --- encoder -------------------------------------------------------------------

XorFecEncoderFilter::XorFecEncoderFilter(std::string name, std::size_t group_size,
                                         runtime::Time processing_time)
    : Filter(std::move(name), processing_time), group_size_(std::max<std::size_t>(2, group_size)) {}

void XorFecEncoderFilter::accumulate(std::uint64_t sequence, std::uint64_t checksum,
                                     std::span<const std::uint8_t> payload,
                                     const TagStack& stack) {
  accumulator_.seq_xor ^= sequence;
  accumulator_.checksum_xor ^= checksum;
  accumulator_.length_xor ^= static_cast<std::uint32_t>(payload.size());
  xor_into(accumulator_.payload_xor, payload);
  if (accumulator_.count == 0) accumulator_.common_stack = stack;
  ++accumulator_.count;
}

void XorFecEncoderFilter::process_span(std::span<PacketRef> batch, PacketSink& sink) {
  char tag_buf[48];
  for (PacketRef& ref : batch) {
    accumulate(ref.sequence(), ref.plaintext_checksum(), ref.payload(), ref.tags());
    note_processed();
    ref.tags().push_back(format_data_tag(tag_buf, next_group_));
    sink.emit(ref);  // data packet forwarded zero-copy

    if (accumulator_.count == group_size_) {
      // Parity payload layout: [8B seq_xor][4B length_xor][payload_xor...].
      PacketRef parity = sink.arena().make_blank(ref.stream_id(), ref.sequence(),
                                                 12 + accumulator_.payload_xor.size());
      std::uint8_t* p = parity.data();
      for (int shift = 56; shift >= 0; shift -= 8) {
        *p++ = static_cast<std::uint8_t>(accumulator_.seq_xor >> shift);
      }
      for (int shift = 24; shift >= 0; shift -= 8) {
        *p++ = static_cast<std::uint8_t>(accumulator_.length_xor >> shift);
      }
      if (!accumulator_.payload_xor.empty()) {
        std::memcpy(p, accumulator_.payload_xor.data(), accumulator_.payload_xor.size());
      }
      parity.set_plaintext_checksum(accumulator_.checksum_xor);
      parity.tags() = accumulator_.common_stack;
      parity.tags().push_back(format_parity_tag(tag_buf, next_group_, group_size_));
      sink.emit(parity);

      ++parity_emitted_;
      ++next_group_;
      accumulator_ = Accumulator{};
    }
  }
}

StateSnapshot XorFecEncoderFilter::refract() const {
  auto snapshot = Filter::refract();
  snapshot["group_size"] = std::to_string(group_size_);
  snapshot["parity_emitted"] = std::to_string(parity_emitted_);
  return snapshot;
}

// --- decoder -------------------------------------------------------------------

XorFecDecoderFilter::XorFecDecoderFilter(std::string name, runtime::Time processing_time)
    : Filter(std::move(name), processing_time) {}

void XorFecDecoderFilter::absorb_data(GroupState& group, std::uint64_t sequence,
                                      std::uint64_t checksum,
                                      std::span<const std::uint8_t> payload) {
  ++group.received;
  group.seq_xor ^= sequence;
  group.checksum_xor ^= checksum;
  group.length_xor ^= static_cast<std::uint32_t>(payload.size());
  xor_into(group.payload_xor, payload);
}

void XorFecDecoderFilter::absorb_parity(GroupState& group, std::size_t k,
                                        std::uint64_t checksum,
                                        std::span<const std::uint8_t> payload,
                                        TagStack residue) {
  group.expected = k;
  group.parity_seen = true;
  group.parity_checksum_xor = checksum;
  group.parity_seq_xor = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    group.parity_seq_xor = (group.parity_seq_xor << 8) | payload[i];
  }
  group.parity_length_xor = 0;
  for (std::size_t i = 8; i < 12; ++i) {
    group.parity_length_xor = (group.parity_length_xor << 8) | payload[i];
  }
  group.parity_payload_xor.assign(payload.begin() + 12, payload.end());
  group.parity_stack = residue;
}

bool XorFecDecoderFilter::reconstruction_due(std::uint64_t group_id, GroupState& group) {
  if (!group.parity_seen || group.expected == 0) return false;
  if (group.received + 1 != group.expected) {
    if (group.received >= group.expected) groups_.erase(group_id);  // complete, nothing to do
    return false;
  }
  return true;
}

PacketRef XorFecDecoderFilter::try_reconstruct_into(std::uint64_t group_id,
                                                    GroupState& group,
                                                    std::uint64_t stream_id,
                                                    PacketArena& arena) {
  if (!reconstruction_due(group_id, group)) return {};
  const std::uint32_t length = group.parity_length_xor ^ group.length_xor;
  const std::size_t known =
      std::max(group.parity_payload_xor.size(), group.payload_xor.size());
  if (length > known) {
    SA_WARN("fec") << name() << ": inconsistent parity for group " << group_id;
    groups_.erase(group_id);
    return {};
  }
  // XOR the missing packet straight into a fresh arena buffer: the accumulated
  // vectors may be shorter than `length` (XOR padding), so missing positions
  // contribute zero.
  PacketRef rebuilt =
      arena.make_blank(stream_id, group.parity_seq_xor ^ group.seq_xor, length);
  std::uint8_t* out = rebuilt.data();
  for (std::uint32_t i = 0; i < length; ++i) {
    const std::uint8_t parity =
        i < group.parity_payload_xor.size() ? group.parity_payload_xor[i] : 0;
    const std::uint8_t data = i < group.payload_xor.size() ? group.payload_xor[i] : 0;
    out[i] = parity ^ data;
  }
  rebuilt.set_plaintext_checksum(group.parity_checksum_xor ^ group.checksum_xor);
  rebuilt.tags() = group.parity_stack;  // the group's common residue
  ++recovered_;
  groups_.erase(group_id);
  return rebuilt;
}

void XorFecDecoderFilter::process_span(std::span<PacketRef> batch, PacketSink& sink) {
  for (PacketRef& ref : batch) {
    if (ref.tags().empty()) {
      note_bypassed();
      sink.emit(ref);
      continue;
    }

    if (const auto data = parse_data_tag(ref.tags().back())) {
      ref.tags().pop_back();
      GroupState& group = groups_[*data];
      absorb_data(group, ref.sequence(), ref.plaintext_checksum(), ref.payload());
      note_processed();
      sink.emit(ref);  // data packet forwarded zero-copy
      const PacketRef rebuilt =
          try_reconstruct_into(*data, group, ref.stream_id(), sink.arena());
      if (rebuilt.valid()) sink.emit(rebuilt);
      prune();
      continue;
    }

    if (const auto parity = parse_parity_tag(ref.tags().back())) {
      const auto [group_id, k] = *parity;
      if (ref.size() < 12) {
        note_dropped();
        continue;
      }
      GroupState& group = groups_[group_id];
      TagStack residue = ref.tags();
      residue.pop_back();
      absorb_parity(group, k, ref.plaintext_checksum(), ref.payload(), residue);
      note_processed();
      const PacketRef rebuilt =
          try_reconstruct_into(group_id, group, ref.stream_id(), sink.arena());
      if (rebuilt.valid()) sink.emit(rebuilt);
      prune();
      continue;  // parity itself is always absorbed
    }

    note_bypassed();
    sink.emit(ref);
  }
}

bool XorFecDecoderFilter::adopt_state(Component& predecessor) {
  auto* other = dynamic_cast<XorFecDecoderFilter*>(&predecessor);
  if (!other) return false;
  groups_ = std::move(other->groups_);
  other->groups_.clear();
  return true;
}

void XorFecDecoderFilter::prune() {
  // Bound state: keep at most 64 groups; stale (oldest) groups can no longer
  // be repaired anyway once the stream has moved on.
  while (groups_.size() > 64) groups_.erase(groups_.begin());
}

StateSnapshot XorFecDecoderFilter::refract() const {
  auto snapshot = Filter::refract();
  snapshot["recovered"] = std::to_string(recovered_);
  snapshot["open_groups"] = std::to_string(groups_.size());
  return snapshot;
}

}  // namespace sa::components
