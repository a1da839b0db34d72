#include "check/message_table.hpp"

#include <functional>
#include <string>

#include "proto/messages.hpp"

namespace sa::check {

namespace {

/// boost::hash_combine-style mixer, same spirit as the cores' fingerprints.
void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

void mix_string(std::uint64_t& h, const std::string& s) { mix(h, std::hash<std::string>{}(s)); }

/// Structural hash of a protocol message: type, step coordinates, and the
/// payload fields that influence receiver behaviour. Timing payloads
/// (ResumeDone::blocked_for) are excluded on purpose — they never steer
/// control flow, and including them would make every state unique.
std::uint64_t structural_fingerprint(const proto::ProtoMessage& message) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  mix(h, message.step.request_id);
  mix(h, message.step.plan);
  mix(h, message.step.step_index);
  mix(h, message.step.attempt);
  switch (message.kind()) {
    case proto::MsgKind::Reset: {
      const auto& reset = static_cast<const proto::ResetMsg&>(message);
      mix(h, 1);
      mix(h, static_cast<std::uint64_t>(reset.drain));
      mix(h, static_cast<std::uint64_t>(reset.sole_participant));
      for (const auto& name : reset.command.remove) mix_string(h, name);
      for (const auto& name : reset.command.add) mix_string(h, name);
      break;
    }
    case proto::MsgKind::ResetDone: mix(h, 2); break;
    case proto::MsgKind::AdaptDone: mix(h, 3); break;
    case proto::MsgKind::Resume: mix(h, 4); break;
    case proto::MsgKind::ResumeDone: mix(h, 5); break;
    case proto::MsgKind::Rollback: mix(h, 6); break;
    case proto::MsgKind::RollbackDone: mix(h, 7); break;
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

MessageTable::Handle MessageTable::intern(const runtime::MessagePtr& message) {
  std::uint64_t fingerprint = 0xcbf29ce484222325ULL;
  std::uint64_t key = 0;
  if (const proto::ProtoMessage* proto = proto::as_proto(message.get())) {
    fingerprint = structural_fingerprint(*proto);
    key = fingerprint;
    if (proto->kind() == proto::MsgKind::ResumeDone) {
      mix(key, static_cast<std::uint64_t>(
                   static_cast<const proto::ResumeDoneMsg&>(*proto).blocked_for));
    }
  } else {
    key = fingerprint;
    mix(key, reinterpret_cast<std::uintptr_t>(message.get()));
  }
  return entries_.intern(
      key, [&message](const Entry& entry) { return same_content(*entry.owner, *message); },
      [&message, fingerprint](Entry& entry) {
        entry.owner = message;
        entry.borrowed = runtime::MessagePtr(runtime::MessagePtr(), message.get());
        entry.fingerprint = fingerprint;
      });
}

}  // namespace sa::check
