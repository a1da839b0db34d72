#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace sa::testing {

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_count{0};

void note_allocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::size_t alloc_count() { return g_count.load(std::memory_order_relaxed); }
void reset_alloc_count() { g_count.store(0, std::memory_order_relaxed); }

}  // namespace sa::testing

void* operator new(std::size_t size) {
  sa::testing::note_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  sa::testing::note_allocation();
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
