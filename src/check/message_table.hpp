// Interned in-flight messages of one model-checking search.
//
// A check::Model holds no message pointers: each message a core sends is
// interned here once per distinct content, and the model's in-flight record
// keeps the entry's handle and structural hash. The table is shared by every
// copy of the search's root model, so the explorer's forks copy plain bytes,
// and two workers forking models never write the same reference count.
//
// Content key: the message kind, its StepRef, a reset's LocalCommand with its
// `drain` and `sole_participant` flags, and ResumeDone::blocked_for — every
// field a receiver reads. Two sends with equal keys share one entry; messages
// are immutable, so either copy would have been delivered unchanged. Traffic
// that is not a protocol message is interned by identity.
//
// Concurrency and lifetime are check::InternStore's: a lookup of content
// already in the table takes no lock and writes nothing shared, only a miss
// takes the mutex, and entries never move and are freed with the table, so a
// handle and the pointers it yields stay valid while any model of the search
// lives.
#pragma once

#include <cstddef>
#include <cstdint>

#include "check/intern_store.hpp"
#include "runtime/message.hpp"

namespace sa::check {

class MessageTable {
 public:
  using Handle = std::uint32_t;

  MessageTable() = default;  ///< allocates nothing until the first intern()
  MessageTable(const MessageTable&) = delete;
  MessageTable& operator=(const MessageTable&) = delete;

  /// The entry holding `message`'s content, added on first sight.
  Handle intern(const runtime::MessagePtr& message);

  /// The first message interned with the entry's content; its use_count is
  /// the table's own reference plus whatever the sender still holds.
  const runtime::MessagePtr& message(Handle handle) const { return entries_[handle].owner; }
  /// The same message behind a pointer that owns nothing: what the model
  /// delivers, so a core that keeps part of it (the agent's reset command)
  /// copies no reference count when its model is forked.
  const runtime::MessagePtr& borrowed(Handle handle) const { return entries_[handle].borrowed; }
  /// Structural hash of the entry's content, blocked_for excluded (timing
  /// payloads never steer a receiver): what the model's fingerprints mix.
  std::uint64_t fingerprint(Handle handle) const { return entries_[handle].fingerprint; }

  /// Number of distinct entries.
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    runtime::MessagePtr owner;
    runtime::MessagePtr borrowed;
    std::uint64_t fingerprint = 0;
  };

  /// Keyed by the fingerprint mixed with blocked_for.
  InternStore<Entry> entries_;
};

}  // namespace sa::check
