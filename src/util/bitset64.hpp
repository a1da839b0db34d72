// IdSet64: a tiny ordered set of small integer ids backed by one
// std::uint64_t bitmask.
//
// The protocol cores and the interleaving explorer track per-step process
// sets (resets sent, adapt-dones delivered, acks collected). Processes are
// dense small ids, the sets hold at most a few members, and the explorer
// copies them at every Model fork — a std::set pays a node allocation per
// member per fork, this is a register. Iteration yields ids in ascending
// order, matching the std::set iteration the callers were written against.
//
// Ids must be < 64; insert() enforces it. The paper-scale scenarios use a
// handful of processes, and the adaptation protocol's fan-out per step is
// bounded by the action's involved set, so 64 is generous.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace sa::util {

class IdSet64 {
 public:
  class const_iterator {
   public:
    explicit const_iterator(std::uint64_t remaining) : remaining_(remaining) {}
    std::uint32_t operator*() const {
      return static_cast<std::uint32_t>(__builtin_ctzll(remaining_));
    }
    const_iterator& operator++() {
      remaining_ &= remaining_ - 1;  // clear lowest set bit
      return *this;
    }
    bool operator!=(const const_iterator& other) const {
      return remaining_ != other.remaining_;
    }

   private:
    std::uint64_t remaining_;
  };

  IdSet64() = default;

  /// True iff `id` was not already present.
  bool insert(std::uint32_t id) {
    assert(id < 64 && "IdSet64 holds ids < 64");
    const std::uint64_t bit = std::uint64_t{1} << id;
    const bool fresh = (mask_ & bit) == 0;
    mask_ |= bit;
    return fresh;
  }

  bool contains(std::uint32_t id) const {
    return id < 64 && ((mask_ >> id) & 1U) != 0;
  }

  void clear() { mask_ = 0; }
  bool empty() const { return mask_ == 0; }
  /// Population count in registers: __builtin_popcountll is a libgcc call
  /// on a build that does not target a CPU with POPCNT, and the explorer
  /// takes four of these per canonical fingerprint.
  std::size_t size() const {
    std::uint64_t x = mask_ - ((mask_ >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<std::size_t>((x * 0x0101010101010101ULL) >> 56);
  }
  std::uint64_t mask() const { return mask_; }

  const_iterator begin() const { return const_iterator(mask_); }
  const_iterator end() const { return const_iterator(0); }

  bool operator==(const IdSet64&) const = default;

 private:
  std::uint64_t mask_ = 0;
};

}  // namespace sa::util
