// Concurrent deduplication sets for 64-bit state fingerprints.
//
// The interleaving explorer inserts one fingerprint per generated state —
// hundreds of thousands per second — and only ever asks "was this value seen
// before?". A node-based std::unordered_set pays one allocation per insert
// and chases a pointer per probe; these sets instead use open addressing over
// a flat power-of-two std::uint64_t array (no per-insert allocation, one
// cache line per probe in the common case).
//
//   FingerprintSet          single-threaded; grows by doubling as it fills.
//   ShardedFingerprintSet   for the parallel explorer. Insert is lock-free:
//                           a compare-and-swap on the slot, with no shared
//                           counter on the way. Each inserting thread counts
//                           its fresh values privately and publishes them in
//                           batches; a shard that the published counts show
//                           over the load policy is grown on a slow path
//                           that briefly stops every inserter. High bits of
//                           the mixed fingerprint pick the shard, so growth
//                           rehashes one shard at a time. A ScopedWriter
//                           runs many inserts under one stop-the-world
//                           handshake (the explorer opens one per frame).
//
// Load policy. Both sets follow one rule: a table grows (doubles) only once
// more than 15/16 of its slots are taken, and the up-front reservation for
// `expected` values is the smallest power of two that holds them under that
// same bound. Linear probing stays cheap that full because an insert's cost
// is dominated by the one cache miss on its first slot, which the explorer
// prefetches; the next slots of a probe chain share that line or follow it.
// A lower bound would only double the table earlier: the exhaustive pair
// search ends 91.5% full in 2^22 slots (32 MiB) where a 3/4 bound needs
// 2^23, and its inserts cost no more (EXPERIMENTS.md, "Visited-set memory").
//
// Memory. Every slot array starts as untouched zero pages of an anonymous
// mapping, so a large reservation costs nothing until the search reaches it,
// and it goes straight back to the kernel (munmap) when a growth replaces it
// — the allocator neither zeroes it up-front nor keeps it cached. The
// sharded set maps its initial shards as one region, each shard's part
// starting on a page boundary: setting up a search costs one mmap and one
// madvise instead of one of each per shard, and a grown shard still unmaps
// just its own part. Regions are advised MADV_HUGEPAGE, since probes land on
// random slots and a table of 4 KiB pages misses the TLB on nearly every one.
// A growing shard holds its old and new arrays at once, so the set's peak is
// its final size plus the largest shard it grew from: with many shards that
// overshoot is small. The explorer uses a fixed shard count
// (check/engine.cpp), chosen so that the overshoot stays near 1/16 of the
// table while each shard of a search-sized table still spans whole huge
// pages.
//
// Budgets. A sharded set made with `budgets` keeps a 32-bit budget beside
// every slot, in a side array of the same shape: the depth-bounded explorer
// stores each state's remaining depth there, so a state reached again with
// more depth left is expanded again (insert() then reports Raised). A set
// made without budgets maps no side array.
//
// Both sets treat the value 0 as the empty-slot sentinel: an incoming 0 is
// remapped to a fixed non-zero constant. Fingerprints are already hashes, so
// this adds one more (astronomically unlikely) collision to the existing
// 64-bit birthday bound — the explorer's dedup is probabilistic either way.
//
// Both sets cap their up-front reservation at 2^22 slots (32 MiB) in total,
// so a huge expected count does not map eagerly; past the cap they grow on
// demand, under the same load policy.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sa::util {

namespace detail {

/// Deleter of a slot array from map_slots(): unmaps its `count` slots.
struct SlotUnmapper {
  std::size_t count = 0;
  void operator()(std::uint64_t* slots) const;
};
using MappedSlots = std::unique_ptr<std::uint64_t[], SlotUnmapper>;

/// `bytes` of zeroed memory in a fresh anonymous mapping, advised for huge
/// pages; throws std::bad_alloc when the kernel refuses it.
void* map_region(std::size_t bytes);

/// `count` zeroed slots in a fresh anonymous mapping; throws std::bad_alloc
/// when the kernel refuses it.
MappedSlots map_slots(std::size_t count);

}  // namespace detail

class FingerprintSet {
 public:
  /// Reserves capacity for `expected` values up-front (the smallest power of
  /// two that holds them under the load policy, capped); the set still grows
  /// by doubling if the estimate was low.
  explicit FingerprintSet(std::size_t expected = 0);

  /// True iff `value` was not present (and is now).
  bool insert(std::uint64_t value);
  bool contains(std::uint64_t value) const;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return mask_ + 1; }

 private:
  void grow();

  detail::MappedSlots slots_;  ///< power-of-two; 0 = empty
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

class ShardedFingerprintSet {
 public:
  /// What an insert found: the value was new, present with a budget at least
  /// as large, or present with a smaller budget (now raised to the new one).
  /// A set without budgets reports only Fresh and Present.
  enum class Insert : std::uint8_t { Present, Fresh, Raised };

  /// `shards` is rounded up to a power of two (at least 1). `expected` is the
  /// total expected value count; the reservation for it is split evenly
  /// across shards. With `budgets`, every value carries a budget (see the
  /// header comment).
  explicit ShardedFingerprintSet(std::size_t expected, std::size_t shards,
                                 bool budgets = false);
  ~ShardedFingerprintSet();
  ShardedFingerprintSet(const ShardedFingerprintSet&) = delete;
  ShardedFingerprintSet& operator=(const ShardedFingerprintSet&) = delete;

  class ScopedWriter;

  /// True iff `value` was not present. Thread-safe; lock-free except while a
  /// shard grows, when every inserter waits for the rehash to finish. One
  /// insert in its own ScopedWriter.
  bool insert(std::uint64_t value);

  /// Starts loading the cache line where insert(value) begins its probe, so
  /// an insert issued a little later finds it in cache. A hint only: safe at
  /// any time, from any thread, even while a shard grows.
  void prefetch(std::uint64_t value) const;

  /// Exact once all inserting threads are quiescent (joined, or otherwise
  /// ordered before the call); a lower bound during concurrent inserts.
  std::size_t size() const;

  std::size_t shard_count() const { return shards_.size(); }
  /// Total slots over all shards. Call only while no thread inserts.
  std::size_t capacity() const;
  /// Most slot and budget bytes mapped at once so far: a growing shard holds
  /// its old and new arrays together until the rehash ends.
  std::size_t peak_bytes() const;

 private:
  struct alignas(64) Shard {
    /// Replaced only while every inserter is stopped; atomic so prefetch()
    /// may read them at any time. A shard owns its array: ~ShardedFingerprintSet
    /// and grow() unmap it.
    std::atomic<std::uint64_t*> slots{nullptr};
    std::atomic<std::size_t> mask{0};  ///< slot count - 1
    std::atomic<std::size_t> published{0};  ///< fresh values counted so far
    /// Budget of the value in each slot, plus one (0 = none yet); null in a
    /// set without budgets. Replaced together with `slots`.
    std::uint32_t* budgets = nullptr;
  };

  /// Eight of a writer's per-shard counts: a cache line of them, so no two
  /// writers' counts share a line.
  struct alignas(64) PendingCounts {
    std::atomic<std::size_t> count[8];
  };

  /// One inserting thread: its in-progress flag (the stop-the-world
  /// handshake) and its not-yet-published fresh counts per shard.
  struct alignas(64) Writer {
    std::atomic<bool> active{false};
    std::thread::id owner;
    std::unique_ptr<PendingCounts[]> pending;
    std::atomic<std::size_t>& pending_of(std::size_t shard) {
      return pending[shard / 8].count[shard % 8];
    }
  };

  std::size_t shard_of(std::uint64_t mixed) const;
  Writer& writer();
  /// The handshake: sets `writer`'s active flag once no shard is growing.
  void enter(Writer& writer);
  void leave(Writer& writer);
  void publish(Writer& writer, std::size_t shard, std::size_t seen_mask);
  /// Doubles `shard` unless another thread already grew it past `seen_mask`.
  /// The caller must not be active.
  void grow(std::size_t shard, std::size_t seen_mask);
  /// grow() from inside an active scope: leaves the handshake around it.
  void grow_from_scope(Writer& writer, std::size_t shard, std::size_t seen_mask);
  /// Slot and budget bytes of a shard of `slots` slots.
  std::size_t shard_bytes(std::size_t slots) const;
  /// Unmaps a shard's arrays of `slots` slots.
  void unmap_shard(std::uint64_t* slots, std::uint32_t* budgets, std::size_t count) const;

  const std::uint64_t id_;  ///< distinguishes sets in the per-thread writer cache
  const bool budgets_;
  std::vector<Shard> shards_;
  std::size_t shard_shift_ = 0;  ///< 64 - log2(shard count)
  alignas(64) std::atomic<bool> growing_{false};
  /// Guards writers_ and the byte counts, and serializes growth; a thread
  /// registers as a writer on its first insert.
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<Writer>> writers_;
  std::size_t bytes_ = 0;       ///< slot bytes mapped now
  std::size_t peak_bytes_ = 0;  ///< most slot bytes mapped at once
};

/// One thread's run of inserts under a single stop-the-world handshake: the
/// constructor waits out any growing shard and marks the thread active, the
/// destructor clears the mark, and each insert between them is a probe and a
/// compare-and-swap with no handshake of its own. An insert that has to grow
/// a shard steps out of the handshake for the growth and back in after it.
/// A growing shard waits for every open scope to close, so a scope must not
/// wait for another inserting thread, and a thread opens one at a time.
class ShardedFingerprintSet::ScopedWriter {
 public:
  explicit ScopedWriter(ShardedFingerprintSet& set);
  ~ScopedWriter();
  ScopedWriter(const ScopedWriter&) = delete;
  ScopedWriter& operator=(const ScopedWriter&) = delete;

  /// True iff `value` was not present (and is now).
  bool insert(std::uint64_t value) { return insert(value, 0) == Insert::Fresh; }
  /// Inserts `value` with `budget` (ignored by a set without budgets).
  Insert insert(std::uint64_t value, std::uint32_t budget);

 private:
  ShardedFingerprintSet& set_;
  Writer& writer_;
};

}  // namespace sa::util
