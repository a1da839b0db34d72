#include "check/message_table.hpp"

#include <bit>
#include <functional>
#include <stdexcept>
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

constexpr std::size_t kFirstIndex = 64;

}  // namespace

MessageTable::Index::Index(std::size_t capacity)
    : mask(capacity - 1), slots(new std::atomic<std::uint64_t>[capacity]) {
  for (std::size_t i = 0; i < capacity; ++i) slots[i].store(0, std::memory_order_relaxed);
}

MessageTable::MessageTable() = default;

MessageTable::~MessageTable() {
  for (std::atomic<Entry*>& chunk : chunks_) delete[] chunk.load(std::memory_order_relaxed);
}

std::size_t MessageTable::chunk_of(Handle handle) {
  return static_cast<std::size_t>(std::bit_width(handle / kFirstChunk + 1)) - 1;
}

std::size_t MessageTable::size() const {
  const std::lock_guard lock(mutex_);
  return size_;
}

std::optional<MessageTable::Handle> MessageTable::find(const Index& index, std::uint64_t key,
                                                       const runtime::Message& message) const {
  const std::uint64_t tag = key >> 32;
  for (std::size_t i = key & index.mask;; i = (i + 1) & index.mask) {
    const std::uint64_t slot = index.slots[i].load(std::memory_order_acquire);
    if (slot == 0) return std::nullopt;
    if ((slot >> 32) != tag) continue;
    const auto handle = static_cast<Handle>((slot & 0xffffffffULL) - 1);
    if (same_content(*entry(handle).owner, message)) return handle;
  }
}

void MessageTable::place(Index& index, std::uint64_t key, Handle handle) const {
  std::size_t i = key & index.mask;
  while (index.slots[i].load(std::memory_order_relaxed) != 0) i = (i + 1) & index.mask;
  index.slots[i].store((key & 0xffffffff00000000ULL) | (std::uint64_t{handle} + 1),
                       std::memory_order_release);
}

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
  if (const Index* index = index_.load(std::memory_order_acquire); index != nullptr) {
    if (const std::optional<Handle> found = find(*index, key, *message)) return *found;
  }

  const std::lock_guard lock(mutex_);
  Index* index = index_.load(std::memory_order_relaxed);
  if (index == nullptr) {  // the first send of the search
    indexes_.push_back(std::make_unique<Index>(kFirstIndex));
    index = indexes_.back().get();
    index_.store(index, std::memory_order_release);
  } else if (const std::optional<Handle> found = find(*index, key, *message)) {
    return *found;
  }
  if (size_ >= std::size_t{0xfffffffe}) throw std::length_error("MessageTable: out of handles");
  const auto handle = static_cast<Handle>(size_);
  const std::size_t chunk = chunk_of(handle);
  Entry* entries = chunks_[chunk].load(std::memory_order_relaxed);
  if (entries == nullptr) {
    entries = new Entry[kFirstChunk << chunk];
    chunks_[chunk].store(entries, std::memory_order_release);
  }
  Entry& fresh = entries[handle - chunk_base(chunk)];
  fresh.owner = message;
  fresh.borrowed = runtime::MessagePtr(runtime::MessagePtr(), message.get());
  fresh.fingerprint = fingerprint;
  fresh.key = key;
  ++size_;
  if (2 * size_ > index->mask + 1) {
    // Grow: rehash into an index twice the size, then publish it. Lookups
    // still probing the old one miss the new entry and retry under the lock.
    indexes_.push_back(std::make_unique<Index>(2 * (index->mask + 1)));
    index = indexes_.back().get();
    for (std::size_t h = 0; h < size_; ++h) {
      place(*index, entry(static_cast<Handle>(h)).key, static_cast<Handle>(h));
    }
    index_.store(index, std::memory_order_release);
  } else {
    place(*index, key, handle);
  }
  return handle;
}

}  // namespace sa::check
