// Append-only interning store shared by the workers of one search: the
// storage and index behind check::MessageTable and check::ManagerTable.
//
// Each distinct entry is kept once and named by a 32-bit handle. A lookup of
// an entry already stored takes no lock and writes nothing shared: it probes
// an open-addressing index of atomic slots, each holding the high half of an
// entry's 64-bit key beside its handle + 1 (0 = empty). Only a miss takes the
// mutex, builds the entry, and publishes it with a release store of its slot.
// Entries live in chunks of doubling size, chunk c holding kFirstChunk << c
// of them, so growth never moves one: a handle and references into its entry
// stay valid for the store's lifetime. Nothing is reserved up front, and a
// chunk's storage is written only as entries fill it, so the pages of its
// unused tail never become resident.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

namespace sa::check {

/// `Entry` must be default-constructible: make() fills a default entry.
template <typename Entry>
class InternStore {
 public:
  using Handle = std::uint32_t;

  InternStore() = default;  ///< allocates nothing until the first insert
  ~InternStore() {
    for (std::size_t h = 0; h < size_; ++h) std::destroy_at(&stored_at(static_cast<Handle>(h)));
    std::allocator<Stored> allocator;
    for (std::size_t c = 0; c < kChunks; ++c) {
      if (Stored* chunk = chunks_[c].load(std::memory_order_relaxed)) {
        allocator.deallocate(chunk, kFirstChunk << c);
      }
    }
  }
  InternStore(const InternStore&) = delete;
  InternStore& operator=(const InternStore&) = delete;

  const Entry& operator[](Handle handle) const {
    const std::size_t chunk = chunk_of(handle);
    return chunks_[chunk].load(std::memory_order_acquire)[handle - chunk_base(chunk)].entry;
  }

  /// Number of entries.
  std::size_t size() const {
    const std::lock_guard lock(mutex_);
    return size_;
  }

  /// The handle of a stored entry under `key` for which `same(entry)` holds.
  /// Lock-free.
  template <typename Same>
  std::optional<Handle> find(std::uint64_t key, const Same& same) const {
    const Index* index = index_.load(std::memory_order_acquire);
    if (index == nullptr) return std::nullopt;
    return find_in(*index, key, same);
  }

  /// find(key, same), or else a new entry under `key`, filled by
  /// `make(entry)` under the mutex.
  template <typename Same, typename Make>
  Handle intern(std::uint64_t key, const Same& same, const Make& make) {
    if (const std::optional<Handle> found = find(key, same)) return *found;

    const std::lock_guard lock(mutex_);
    Index* index = current_.get();
    if (index == nullptr) {  // the first insert
      current_ = std::make_unique<Index>(kFirstIndex, nullptr);
      index = current_.get();
      index_.store(index, std::memory_order_release);
    } else if (const std::optional<Handle> found = find_in(*index, key, same)) {
      return *found;
    }
    if (size_ >= std::size_t{0xfffffffe}) throw std::length_error("InternStore: out of handles");
    const auto handle = static_cast<Handle>(size_);
    const std::size_t chunk = chunk_of(handle);
    Stored* stored = chunks_[chunk].load(std::memory_order_relaxed);
    if (stored == nullptr) {
      stored = std::allocator<Stored>().allocate(kFirstChunk << chunk);
      chunks_[chunk].store(stored, std::memory_order_release);
    }
    Stored& fresh = *std::construct_at(&stored[handle - chunk_base(chunk)]);
    fresh.key = key;
    make(fresh.entry);
    ++size_;
    if (4 * size_ > 3 * (index->mask + 1)) {
      // Grow: rehash into an index twice the size, then publish it. Lookups
      // still probing the old one miss the new entry and retry under the lock.
      current_ = std::make_unique<Index>(2 * (index->mask + 1), std::move(current_));
      index = current_.get();
      for (std::size_t h = 0; h < size_; ++h) {
        place(*index, stored_at(static_cast<Handle>(h)).key, static_cast<Handle>(h));
      }
      index_.store(index, std::memory_order_release);
    } else {
      place(*index, key, handle);
    }
    return handle;
  }

 private:
  struct Stored {
    Entry entry{};
    std::uint64_t key = 0;
  };
  /// Keeps at most three quarters of its slots full, so every probe ends at
  /// an empty one.
  struct Index {
    Index(std::size_t capacity, std::unique_ptr<Index> replaced)
        : mask(capacity - 1),
          slots(std::make_unique<std::atomic<std::uint64_t>[]>(capacity)),
          retired(std::move(replaced)) {}
    std::size_t mask;
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;  ///< value-initialized: empty
    /// The index this one replaced, alive for lookups that loaded it before
    /// the grow; freed with the store.
    std::unique_ptr<Index> retired;
  };

  /// Entries in the first chunk: as many as fit in 2 KiB (a power of two,
  /// at least one), so a store of large entries, such as manager cores,
  /// starts without a large allocation.
  static constexpr std::size_t kFirstChunk =
      std::bit_floor(std::max<std::size_t>(1, 2048 / sizeof(Stored)));
  /// Enough chunks to cover every 32-bit handle.
  static constexpr std::size_t kChunks = 34 - std::bit_width(kFirstChunk);
  static constexpr std::size_t kFirstIndex = 64;

  static std::size_t chunk_of(Handle handle) {
    return static_cast<std::size_t>(std::bit_width(handle / kFirstChunk + 1)) - 1;
  }
  static std::size_t chunk_base(std::size_t chunk) {
    return kFirstChunk * ((std::size_t{1} << chunk) - 1);
  }

  const Stored& stored_at(Handle handle) const {
    const std::size_t chunk = chunk_of(handle);
    return chunks_[chunk].load(std::memory_order_acquire)[handle - chunk_base(chunk)];
  }

  template <typename Same>
  std::optional<Handle> find_in(const Index& index, std::uint64_t key, const Same& same) const {
    const std::uint64_t tag = key >> 32;
    for (std::size_t i = key & index.mask;; i = (i + 1) & index.mask) {
      const std::uint64_t slot = index.slots[i].load(std::memory_order_acquire);
      if (slot == 0) return std::nullopt;
      if ((slot >> 32) != tag) continue;
      const auto handle = static_cast<Handle>((slot & 0xffffffffULL) - 1);
      if (same((*this)[handle])) return handle;
    }
  }

  static void place(Index& index, std::uint64_t key, Handle handle) {
    std::size_t i = key & index.mask;
    while (index.slots[i].load(std::memory_order_relaxed) != 0) i = (i + 1) & index.mask;
    index.slots[i].store((key & 0xffffffff00000000ULL) | (std::uint64_t{handle} + 1),
                         std::memory_order_release);
  }

  std::array<std::atomic<Stored*>, kChunks> chunks_{};
  std::atomic<Index*> index_{nullptr};

  mutable std::mutex mutex_;  ///< guards the members below and every insert
  std::size_t size_ = 0;
  std::unique_ptr<Index> current_;  ///< what index_ points at
};

}  // namespace sa::check
