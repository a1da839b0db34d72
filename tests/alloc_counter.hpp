// Counting replacement of the global allocation functions, for tests and
// benches that assert or report how often a code path allocates.
//
// Linking the sa_alloc_counter library replaces the global operator new and
// delete (plain and aligned; the array, nothrow and sized forms forward to
// them) with malloc-based versions that count allocations while counting is
// switched on. Counting is off by default, so code outside a measured region
// pays one relaxed load per allocation.
#pragma once

#include <cstddef>

namespace sa::testing {

/// Switches counting on or off for every thread.
void set_alloc_counting(bool on);

/// Allocations counted since the last reset.
std::size_t alloc_count();
void reset_alloc_count();

/// Counts the allocations made while it is alive (on every thread).
class AllocationScope {
 public:
  AllocationScope() {
    reset_alloc_count();
    set_alloc_counting(true);
  }
  ~AllocationScope() { set_alloc_counting(false); }
  AllocationScope(const AllocationScope&) = delete;
  AllocationScope& operator=(const AllocationScope&) = delete;

  std::size_t count() const { return alloc_count(); }
};

}  // namespace sa::testing
