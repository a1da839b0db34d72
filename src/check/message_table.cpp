#include "check/message_table.hpp"

#include <array>
#include <bit>
#include <string>

#include "proto/messages.hpp"
#include "util/hash.hpp"

namespace sa::check {

namespace {

using util::hash_mix;

/// Structural hash of a protocol message: type, step coordinates, and the
/// payload fields that influence receiver behaviour. Timing payloads
/// (ResumeDone::blocked_for) are excluded on purpose — they never steer
/// control flow, and including them would make every state unique.
std::uint64_t structural_fingerprint(const proto::ProtoMessage& message,
                                     const std::array<std::uint64_t, 64>& names) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix_names = [&](config::Configuration mask) {
    for (std::uint64_t bits = mask.bits(); bits != 0; bits &= bits - 1) {
      hash_mix(h, names[std::countr_zero(bits)]);
    }
  };
  hash_mix(h, message.step.request_id);
  hash_mix(h, message.step.plan);
  hash_mix(h, message.step.step_index);
  hash_mix(h, message.step.attempt);
  switch (message.kind()) {
    case proto::MsgKind::Reset: {
      const auto& reset = static_cast<const proto::ResetMsg&>(message);
      hash_mix(h, 1);
      hash_mix(h, static_cast<std::uint64_t>(reset.drain));
      hash_mix(h, static_cast<std::uint64_t>(reset.sole_participant));
      mix_names(reset.command.remove);
      mix_names(reset.command.add);
      break;
    }
    case proto::MsgKind::ResetDone: hash_mix(h, 2); break;
    case proto::MsgKind::AdaptDone: hash_mix(h, 3); break;
    case proto::MsgKind::Resume: hash_mix(h, 4); break;
    case proto::MsgKind::ResumeDone: hash_mix(h, 5); break;
    case proto::MsgKind::Rollback: hash_mix(h, 6); break;
    case proto::MsgKind::RollbackDone: hash_mix(h, 7); break;
  }
  return h;
}

/// Equal content keys: every field a receiver reads matches.
bool same_content(const runtime::Message& a, const runtime::Message& b) {
  if (&a == &b) return true;
  const proto::ProtoMessage* pa = proto::as_proto(&a);
  const proto::ProtoMessage* pb = proto::as_proto(&b);
  if (pa == nullptr || pb == nullptr) return false;  // other traffic: identity
  if (pa->kind() != pb->kind() || !(pa->step == pb->step)) return false;
  switch (pa->kind()) {
    case proto::MsgKind::Reset: {
      const auto& ra = static_cast<const proto::ResetMsg&>(*pa);
      const auto& rb = static_cast<const proto::ResetMsg&>(*pb);
      return ra.drain == rb.drain && ra.sole_participant == rb.sole_participant &&
             ra.command == rb.command;
    }
    case proto::MsgKind::ResumeDone:
      return static_cast<const proto::ResumeDoneMsg&>(*pa).blocked_for ==
             static_cast<const proto::ResumeDoneMsg&>(*pb).blocked_for;
    default:
      return true;
  }
}

}  // namespace

MessageTable::MessageTable(const config::ComponentRegistry& registry) {
  for (config::ComponentId id = 0; id < registry.size(); ++id) {
    name_hashes_[id] = std::hash<std::string>{}(registry.name(id));
  }
}

MessageTable::Handle MessageTable::intern(const runtime::MessagePtr& message) {
  std::uint64_t fingerprint = 0xcbf29ce484222325ULL;
  std::uint64_t key = 0;
  if (const proto::ProtoMessage* proto = proto::as_proto(message.get())) {
    fingerprint = structural_fingerprint(*proto, name_hashes_);
    key = fingerprint;
    if (proto->kind() == proto::MsgKind::ResumeDone) {
      hash_mix(key, static_cast<std::uint64_t>(
                   static_cast<const proto::ResumeDoneMsg&>(*proto).blocked_for));
    }
  } else {
    key = fingerprint;
    hash_mix(key, reinterpret_cast<std::uintptr_t>(message.get()));
  }
  return entries_.intern(
      key, [&message](const Entry& entry) { return same_content(*entry.owner, *message); },
      [&message, fingerprint](Entry& entry) {
        entry.owner = message;
        entry.fingerprint = fingerprint;
      });
}

}  // namespace sa::check
