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
// Concurrency: a lookup of content already in the table takes no lock and
// writes nothing shared — it probes an open-addressing index of atomic
// slots. Only a miss takes the mutex, appends the entry and publishes it.
// Entries never move and are freed with the table, so a handle and the
// pointers it yields stay valid while any model of the search lives.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "runtime/message.hpp"

namespace sa::check {

class MessageTable {
 public:
  using Handle = std::uint32_t;

  MessageTable();  ///< allocates nothing until the first intern()
  ~MessageTable();
  MessageTable(const MessageTable&) = delete;
  MessageTable& operator=(const MessageTable&) = delete;

  /// The entry holding `message`'s content, added on first sight.
  Handle intern(const runtime::MessagePtr& message);

  /// The first message interned with the entry's content; its use_count is
  /// the table's own reference plus whatever the sender still holds.
  const runtime::MessagePtr& message(Handle handle) const { return entry(handle).owner; }
  /// The same message behind a pointer that owns nothing: what the model
  /// delivers, so a core that keeps part of it (the agent's reset command)
  /// copies no reference count when its model is forked.
  const runtime::MessagePtr& borrowed(Handle handle) const { return entry(handle).borrowed; }
  /// Structural hash of the entry's content, blocked_for excluded (timing
  /// payloads never steer a receiver): what the model's fingerprints mix.
  std::uint64_t fingerprint(Handle handle) const { return entry(handle).fingerprint; }

  /// Number of distinct entries.
  std::size_t size() const;

 private:
  struct Entry {
    runtime::MessagePtr owner;
    runtime::MessagePtr borrowed;
    std::uint64_t fingerprint = 0;
    std::uint64_t key = 0;  ///< fingerprint mixed with blocked_for
  };
  /// Open-addressing index over the entries. A slot holds the high half of
  /// the entry's key beside its handle + 1 (0 = empty); the table keeps at
  /// most half the slots full, so every probe ends at an empty slot.
  struct Index {
    explicit Index(std::size_t capacity);
    std::size_t mask;
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  };

  /// Entries live in chunks of doubling size, chunk c holding
  /// kFirstChunk << c of them, so growth never moves one. Small first
  /// allocations keep a model's construction cheap.
  static constexpr std::size_t kFirstChunk = 16;
  static constexpr std::size_t kChunks = 29;  ///< covers every 32-bit handle

  static std::size_t chunk_of(Handle handle);
  static std::size_t chunk_base(std::size_t chunk) {
    return kFirstChunk * ((std::size_t{1} << chunk) - 1);
  }

  const Entry& entry(Handle handle) const {
    const std::size_t chunk = chunk_of(handle);
    return chunks_[chunk].load(std::memory_order_acquire)[handle - chunk_base(chunk)];
  }
  /// The handle of the entry equal to `message` under `key`, if any.
  std::optional<Handle> find(const Index& index, std::uint64_t key,
                             const runtime::Message& message) const;
  void place(Index& index, std::uint64_t key, Handle handle) const;

  std::array<std::atomic<Entry*>, kChunks> chunks_{};
  std::atomic<Index*> index_{nullptr};

  mutable std::mutex mutex_;  ///< guards the members below and every insert
  std::size_t size_ = 0;
  /// The current index is the last; earlier ones stay alive for lookups
  /// that loaded them before a grow and are freed with the table.
  std::vector<std::unique_ptr<Index>> indexes_;
};

}  // namespace sa::check
