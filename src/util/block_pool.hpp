// Per-thread free lists of small heap blocks.
//
// The model checker makes and drops a few small objects on every explored
// edge: the schedule node of each new frame, the messages the protocol
// cores send (most of which the search's message table already holds, so
// they die within the step), and the payloads of their outcome and plan
// outputs. Each used to be one malloc and one free. A
// BlockPool keeps the freed blocks of each small size class on a list owned
// by the freeing thread, and the next allocation of that class on that
// thread pops one, so a warm search allocates nothing on its hot path.
//
// Blocks stay ordinary operator-new blocks. A block may be freed on any
// thread: it joins that thread's list, whoever allocated it. A thread's lists
// are given back to the heap when the thread exits; a block freed on a thread
// after that (by a thread_local destroyed later, or by a static destructor
// on the main thread) goes straight back to the heap. Each list is capped, so
// a thread that frees much more than it allocates — schedule nodes of frames
// it stole — hands the excess to the heap too.
//
// PoolAllocator<T> is a standard allocator over the pool, for
// std::allocate_shared: make_pooled<T>(args...) is std::make_shared<T> with
// the object and its reference counts in one pooled block.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace sa::util {

class BlockPool {
 public:
  /// Blocks of at most this many bytes are pooled; larger ones go to the
  /// heap. The largest pooled object is a protocol core's OutputPayload.
  static constexpr std::size_t kMaxPooledBytes = 512;

  /// A block of at least `bytes` bytes, aligned for any scalar type.
  static void* allocate(std::size_t bytes);
  /// Returns a block from allocate(bytes), freed on any thread.
  static void deallocate(void* block, std::size_t bytes) noexcept;
  /// Blocks of `bytes`' size class cached on the calling thread (tests).
  static std::size_t cached(std::size_t bytes) noexcept;
};

template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "pooled blocks carry operator new's default alignment");
    return static_cast<T*>(BlockPool::allocate(n * sizeof(T)));
  }
  void deallocate(T* block, std::size_t n) noexcept { BlockPool::deallocate(block, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PoolAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

/// std::make_shared<T>(args...) with its one block drawn from the pool.
template <typename T, typename... Args>
std::shared_ptr<T> make_pooled(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{}, std::forward<Args>(args)...);
}

}  // namespace sa::util
