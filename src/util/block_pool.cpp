#include "util/block_pool.hpp"

#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace sa::util {

namespace {

/// Size classes are multiples of operator new's default alignment, so every
/// block of a class can serve every request of that class.
constexpr std::size_t kGranule = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
constexpr std::size_t kClasses = BlockPool::kMaxPooledBytes / kGranule;
/// Blocks one thread keeps per class: enough for the churn of a search
/// worker, at most 256 KiB for the largest class.
constexpr std::uint32_t kMaxCached = 1024;

struct FreeBlock {
  FreeBlock* next;
};

/// One thread's free lists. Trivially destructible, so a block freed during
/// thread exit can still read it; `drained` marks lists already given back.
struct ThreadLists {
  FreeBlock* head[kClasses];
  std::uint32_t count[kClasses];
  bool drainer_armed;
  bool drained;
};
thread_local ThreadLists t_lists{};

std::size_t class_of(std::size_t bytes) { return (bytes + kGranule - 1) / kGranule - 1; }
std::size_t class_bytes(std::size_t index) { return (index + 1) * kGranule; }

// A cached block is poisoned for AddressSanitizer, so a use after free still
// reports even though the block never went back to the heap.
void poison(void* block, std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(block, bytes);
#else
  (void)block;
  (void)bytes;
#endif
}

void unpoison(void* block, std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(block, bytes);
#else
  (void)block;
  (void)bytes;
#endif
}

FreeBlock* pop(ThreadLists& lists, std::size_t index) {
  FreeBlock* block = lists.head[index];
  unpoison(block, class_bytes(index));
  lists.head[index] = block->next;
  --lists.count[index];
  return block;
}

/// Gives the thread's cached blocks back to the heap as the thread exits.
struct Drainer {
  ~Drainer() {
    for (std::size_t index = 0; index < kClasses; ++index) {
      while (t_lists.head[index] != nullptr) ::operator delete(pop(t_lists, index));
    }
    t_lists.drained = true;
  }
};

void arm_drainer() {
  thread_local Drainer drainer;
  (void)drainer;
}

}  // namespace

void* BlockPool::allocate(std::size_t bytes) {
  if (bytes > kMaxPooledBytes) return ::operator new(bytes);
  const std::size_t index = class_of(bytes == 0 ? 1 : bytes);
  ThreadLists& lists = t_lists;
  if (lists.head[index] != nullptr) return pop(lists, index);
  return ::operator new(class_bytes(index));
}

void BlockPool::deallocate(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  if (bytes > kMaxPooledBytes) {
    ::operator delete(block);
    return;
  }
  const std::size_t index = class_of(bytes == 0 ? 1 : bytes);
  ThreadLists& lists = t_lists;
  if (lists.drained || lists.count[index] >= kMaxCached) {
    ::operator delete(block);
    return;
  }
  if (!lists.drainer_armed) {
    lists.drainer_armed = true;
    arm_drainer();
  }
  lists.head[index] = ::new (block) FreeBlock{lists.head[index]};
  ++lists.count[index];
  poison(block, class_bytes(index));
}

std::size_t BlockPool::cached(std::size_t bytes) noexcept {
  if (bytes == 0 || bytes > kMaxPooledBytes) return 0;
  return t_lists.count[class_of(bytes)];
}

}  // namespace sa::util
