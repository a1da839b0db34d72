#include "util/fingerprint_set.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <new>

namespace sa::util {

namespace {

constexpr std::uint64_t kZeroSentinel = 0x9e3779b97f4a7c15ULL;
constexpr std::size_t kMinCapacity = 64;
/// Eager pre-reservation cap: 2^22 slots = 32 MiB for the whole set (all
/// shards together). A --max-states budget above this still works, the table
/// just doubles on demand instead of being allocated up-front.
constexpr std::size_t kMaxReserveSlots = std::size_t{1} << 22;
/// Fresh values an inserting thread counts privately before publishing them
/// to their shard (fewer in small shards, so the unpublished backlog stays a
/// small fraction of the shard).
constexpr std::size_t kPublishBatch = 64;

/// Finalizing mixer (splitmix64): fingerprints are already hashes, but their
/// low bits come from a weak xor-shift combine — spread them before masking.
inline std::uint64_t remix(std::uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return v ^ (v >> 31);
}

inline std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// The one load policy of both sets: a table is over it once more than 15/16
/// of its slots are taken.
inline bool over_threshold(std::size_t values, std::size_t capacity) {
  return values * 16 > capacity * 15;
}

/// Slots reserved up-front for `expected` values: the smallest power of two
/// that holds them without going over the load policy. Clamped first, so a
/// huge `expected` cannot wrap.
std::size_t reserved_slots(std::size_t expected) {
  const std::size_t wanted = std::min(expected, kMaxReserveSlots);
  std::size_t slots = kMinCapacity;
  while (slots < kMaxReserveSlots && over_threshold(wanted, slots)) slots <<= 1;
  return slots;
}

/// Puts `value` into the first empty slot of its probe chain and returns
/// the slot. Only for tables no other thread can see.
std::size_t place(std::uint64_t* slots, std::size_t mask, std::uint64_t value) {
  std::size_t idx = static_cast<std::size_t>(remix(value)) & mask;
  while (slots[idx] != 0) idx = (idx + 1) & mask;
  slots[idx] = value;
  return idx;
}

/// `bytes` rounded up to whole pages: where the next part of a region starts.
std::size_t page_round(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

/// Raises the budget stored in `cell` (the budget plus one, 0 = none yet) to
/// `budget`; true iff it was lower. Two inserters of one fresh value may race
/// here: both may report a raise, never neither.
bool raise_budget(std::uint32_t& cell, std::uint32_t budget) {
  std::atomic_ref<std::uint32_t> stored(cell);
  const std::uint32_t wanted = budget + 1;
  std::uint32_t seen = stored.load(std::memory_order_relaxed);
  while (seen < wanted) {
    if (stored.compare_exchange_weak(seen, wanted, std::memory_order_relaxed)) return true;
  }
  return false;
}

/// Per-thread cache of the writer record of the set this thread inserted
/// into last; keyed by set id, so a destroyed set's entry is never reused.
struct WriterCache {
  std::uint64_t set_id = 0;
  void* writer = nullptr;
};
thread_local WriterCache t_writer;

std::atomic<std::uint64_t> g_next_set_id{1};

}  // namespace

// --- slot arrays -------------------------------------------------------------

void detail::SlotUnmapper::operator()(std::uint64_t* slots) const {
  ::munmap(slots, count * sizeof(std::uint64_t));
}

void* detail::map_region(std::size_t bytes) {
  void* region =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (region == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
  // Advice only: without transparent huge pages the region keeps 4 KiB pages.
  ::madvise(region, bytes, MADV_HUGEPAGE);
#endif
  return region;
}

detail::MappedSlots detail::map_slots(std::size_t count) {
  return MappedSlots(static_cast<std::uint64_t*>(map_region(count * sizeof(std::uint64_t))),
                     SlotUnmapper{count});
}

// --- FingerprintSet ----------------------------------------------------------

FingerprintSet::FingerprintSet(std::size_t expected)
    : slots_(detail::map_slots(reserved_slots(expected))),
      mask_(slots_.get_deleter().count - 1) {}

bool FingerprintSet::insert(std::uint64_t value) {
  if (value == 0) value = kZeroSentinel;
  if (over_threshold(size_ + 1, capacity())) grow();
  std::size_t idx = static_cast<std::size_t>(remix(value)) & mask_;
  while (true) {
    const std::uint64_t slot = slots_[idx];
    if (slot == value) return false;
    if (slot == 0) {
      slots_[idx] = value;
      ++size_;
      return true;
    }
    idx = (idx + 1) & mask_;
  }
}

bool FingerprintSet::contains(std::uint64_t value) const {
  if (value == 0) value = kZeroSentinel;
  std::size_t idx = static_cast<std::size_t>(remix(value)) & mask_;
  while (true) {
    const std::uint64_t slot = slots_[idx];
    if (slot == value) return true;
    if (slot == 0) return false;
    idx = (idx + 1) & mask_;
  }
}

void FingerprintSet::grow() {
  detail::MappedSlots fresh = detail::map_slots(capacity() * 2);
  const std::size_t mask = capacity() * 2 - 1;
  for (std::size_t i = 0; i <= mask_; ++i) {
    if (slots_[i] != 0) place(fresh.get(), mask, slots_[i]);
  }
  slots_ = std::move(fresh);
  mask_ = mask;
}

// --- ShardedFingerprintSet ---------------------------------------------------
//
// Stop-the-world handshake. An inserter sets its own `active` flag, then
// reads `growing_`; a grower sets `growing_`, then waits until every
// inserter's flag is clear. Both sides use sequentially consistent
// operations, so either the inserter sees `growing_` and backs off before
// touching the shard, or the grower sees the flag and waits for the probe to
// finish. Each inserter writes only its own flag's cache line, so the fast
// path shares nothing with other inserters but the slots themselves. A
// ScopedWriter holds the flag across a run of inserts, so the run pays for
// one handshake.

ShardedFingerprintSet::ShardedFingerprintSet(std::size_t expected, std::size_t shards,
                                             bool budgets)
    : id_(g_next_set_id.fetch_add(1, std::memory_order_relaxed)),
      budgets_(budgets),
      shards_(next_pow2(shards == 0 ? 1 : shards)) {
  std::size_t log2 = 0;
  while ((std::size_t{1} << log2) < shards_.size()) ++log2;
  shard_shift_ = 64 - log2;
  const std::size_t per_shard =
      std::max(kMinCapacity, reserved_slots(expected) / shards_.size());
  // One region holds every shard's slots, then every shard's budgets, each
  // part starting on a page boundary, so unmapping one part when its shard
  // grows leaves the others mapped.
  const std::size_t slot_stride = page_round(per_shard * sizeof(std::uint64_t));
  const std::size_t budget_stride = budgets ? page_round(per_shard * sizeof(std::uint32_t)) : 0;
  auto* const region = static_cast<char*>(
      detail::map_region(shards_.size() * (slot_stride + budget_stride)));
  char* const budget_base = region + shards_.size() * slot_stride;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].slots.store(reinterpret_cast<std::uint64_t*>(region + s * slot_stride),
                           std::memory_order_relaxed);
    shards_[s].mask.store(per_shard - 1, std::memory_order_relaxed);
    if (budgets) {
      shards_[s].budgets = reinterpret_cast<std::uint32_t*>(budget_base + s * budget_stride);
    }
  }
  bytes_ = shards_.size() * shard_bytes(per_shard);
  peak_bytes_ = bytes_;
}

ShardedFingerprintSet::~ShardedFingerprintSet() {
  for (Shard& shard : shards_) {
    unmap_shard(shard.slots.load(std::memory_order_relaxed), shard.budgets,
                shard.mask.load(std::memory_order_relaxed) + 1);
  }
}

std::size_t ShardedFingerprintSet::shard_bytes(std::size_t slots) const {
  return slots * (sizeof(std::uint64_t) + (budgets_ ? sizeof(std::uint32_t) : 0));
}

void ShardedFingerprintSet::unmap_shard(std::uint64_t* slots, std::uint32_t* budgets,
                                        std::size_t count) const {
  // munmap rounds the length up to whole pages, which is exactly a region
  // part's extent.
  ::munmap(slots, count * sizeof(std::uint64_t));
  if (budgets != nullptr) ::munmap(budgets, count * sizeof(std::uint32_t));
}

std::size_t ShardedFingerprintSet::shard_of(std::uint64_t mixed) const {
  // Shard index from the *remixed* top bits: the in-shard probe position uses
  // the low bits of the same mix, so shard choice and slot stay decorrelated
  // enough, and raw fingerprints with skewed top bits still spread evenly.
  return shard_shift_ >= 64 ? 0 : static_cast<std::size_t>(mixed >> shard_shift_);
}

ShardedFingerprintSet::Writer& ShardedFingerprintSet::writer() {
  if (t_writer.set_id == id_) return *static_cast<Writer*>(t_writer.writer);
  std::lock_guard<std::mutex> lock(registry_mu_);
  const std::thread::id me = std::this_thread::get_id();
  Writer* found = nullptr;
  for (const auto& w : writers_) {
    if (w->owner == me) found = w.get();
  }
  if (found == nullptr) {
    auto fresh = std::make_unique<Writer>();
    fresh->owner = me;
    fresh->pending = std::make_unique<PendingCounts[]>((shards_.size() + 7) / 8);
    found = fresh.get();
    writers_.push_back(std::move(fresh));
  }
  t_writer = WriterCache{id_, found};
  return *found;
}

void ShardedFingerprintSet::enter(Writer& w) {
  while (true) {
    w.active.store(true);
    if (!growing_.load()) return;
    w.active.store(false, std::memory_order_release);
    while (growing_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
}

void ShardedFingerprintSet::leave(Writer& w) { w.active.store(false, std::memory_order_release); }

bool ShardedFingerprintSet::insert(std::uint64_t value) { return ScopedWriter(*this).insert(value); }

ShardedFingerprintSet::ScopedWriter::ScopedWriter(ShardedFingerprintSet& set)
    : set_(set), writer_(set.writer()) {
  set_.enter(writer_);
}

ShardedFingerprintSet::ScopedWriter::~ScopedWriter() { set_.leave(writer_); }

ShardedFingerprintSet::Insert ShardedFingerprintSet::ScopedWriter::insert(std::uint64_t value,
                                                                        std::uint32_t budget) {
  if (value == 0) value = kZeroSentinel;
  const std::uint64_t mixed = remix(value);
  const std::size_t s = set_.shard_of(mixed);
  while (true) {
    Shard& shard = set_.shards_[s];
    std::uint64_t* const slots = shard.slots.load(std::memory_order_relaxed);
    const std::size_t mask = shard.mask.load(std::memory_order_relaxed);
    std::size_t idx = static_cast<std::size_t>(mixed) & mask;
    for (std::size_t probes = 0; probes <= mask; ++probes) {
      std::atomic_ref<std::uint64_t> slot(slots[idx]);
      std::uint64_t seen = slot.load(std::memory_order_relaxed);
      if (seen == 0 && slot.compare_exchange_strong(seen, value, std::memory_order_relaxed)) {
        if (shard.budgets != nullptr) raise_budget(shard.budgets[idx], budget);
        set_.publish(writer_, s, mask);
        return Insert::Fresh;
      }
      if (seen == value) {
        if (shard.budgets != nullptr && raise_budget(shard.budgets[idx], budget)) {
          return Insert::Raised;
        }
        return Insert::Present;
      }
      idx = (idx + 1) & mask;
    }
    // Every slot is taken (unpublished counts hid the load): grow and retry.
    set_.grow_from_scope(writer_, s, mask);
  }
}

void ShardedFingerprintSet::prefetch(std::uint64_t value) const {
  if (value == 0) value = kZeroSentinel;
  const std::uint64_t mixed = remix(value);
  const Shard& shard = shards_[shard_of(mixed)];
  // Unsynchronized with growth on purpose: a stale array or mask only makes
  // the hint useless, since a prefetch never faults.
  const std::uint64_t* const slots = shard.slots.load(std::memory_order_relaxed);
  const std::size_t mask = shard.mask.load(std::memory_order_relaxed);
  __builtin_prefetch(slots + (static_cast<std::size_t>(mixed) & mask), /*rw=*/1);
}

void ShardedFingerprintSet::publish(Writer& w, std::size_t shard, std::size_t seen_mask) {
  const std::size_t batch = std::clamp<std::size_t>((seen_mask + 1) >> 6, 1, kPublishBatch);
  std::atomic<std::size_t>& pending = w.pending_of(shard);
  const std::size_t count = pending.load(std::memory_order_relaxed) + 1;
  if (count < batch) {
    pending.store(count, std::memory_order_relaxed);
    return;
  }
  pending.store(0, std::memory_order_relaxed);
  const std::size_t total =
      shards_[shard].published.fetch_add(count, std::memory_order_relaxed) + count;
  if (over_threshold(total, seen_mask + 1)) grow_from_scope(w, shard, seen_mask);
}

void ShardedFingerprintSet::grow_from_scope(Writer& w, std::size_t shard, std::size_t seen_mask) {
  leave(w);
  grow(shard, seen_mask);
  enter(w);
}

void ShardedFingerprintSet::grow(std::size_t shard_index, std::size_t seen_mask) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  Shard& shard = shards_[shard_index];
  if (shard.mask.load(std::memory_order_relaxed) != seen_mask) return;  // grown meanwhile
  // Mapped before the world stops, so a refused mapping throws while every
  // inserter still runs and growing_ was never set.
  const std::size_t capacity = (seen_mask + 1) * 2;
  detail::MappedSlots fresh = detail::map_slots(capacity);
  std::uint32_t* const fresh_budgets =
      budgets_ ? static_cast<std::uint32_t*>(detail::map_region(capacity * sizeof(std::uint32_t)))
               : nullptr;
  growing_.store(true);
  for (const auto& w : writers_) {
    while (w->active.load()) std::this_thread::yield();
  }
  bytes_ += shard_bytes(capacity);
  peak_bytes_ = std::max(peak_bytes_, bytes_);
  std::uint64_t* const old = shard.slots.load(std::memory_order_relaxed);
  std::uint32_t* const old_budgets = shard.budgets;
  for (std::size_t i = 0; i <= seen_mask; ++i) {
    if (old[i] == 0) continue;
    const std::size_t idx = place(fresh.get(), capacity - 1, old[i]);
    if (old_budgets != nullptr) fresh_budgets[idx] = old_budgets[i];
  }
  shard.slots.store(fresh.release(), std::memory_order_relaxed);
  shard.mask.store(capacity - 1, std::memory_order_relaxed);
  shard.budgets = fresh_budgets;
  // Unmapped as soon as it is rehashed: the old and new arrays of only this
  // one shard are ever mapped together.
  unmap_shard(old, old_budgets, seen_mask + 1);
  bytes_ -= shard_bytes(seen_mask + 1);
  growing_.store(false, std::memory_order_release);
}

std::size_t ShardedFingerprintSet::size() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.published.load(std::memory_order_relaxed);
  for (const auto& w : writers_) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      total += w->pending_of(s).load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::size_t ShardedFingerprintSet::capacity() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.mask.load(std::memory_order_relaxed) + 1;
  return total;
}

std::size_t ShardedFingerprintSet::peak_bytes() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return peak_bytes_;
}

}  // namespace sa::util
