// Per-thread free lists of small blocks (util/block_pool.hpp): reuse on the
// freeing thread, blocks freed on a thread other than the allocating one,
// blocks freed after the freeing thread's lists were given back, and pooled
// shared objects passed between threads. Run under ASan+UBSan (a block that
// leaks or is freed twice fails there) and under TSan: the suite name is in
// the TSan job's test filter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/block_pool.hpp"

namespace sa::util {
namespace {

constexpr std::size_t kBytes = 48;

TEST(BlockPool, FreedBlockIsReusedForTheSameSizeClass) {
  void* const first = BlockPool::allocate(kBytes);
  const std::size_t cached = BlockPool::cached(kBytes);
  BlockPool::deallocate(first, kBytes);
  EXPECT_EQ(BlockPool::cached(kBytes), cached + 1);
  void* const again = BlockPool::allocate(kBytes - 8);  // same 16-byte class
  EXPECT_EQ(again, first);
  EXPECT_EQ(BlockPool::cached(kBytes), cached);
  BlockPool::deallocate(again, kBytes - 8);
}

TEST(BlockPool, LargeBlocksBypassTheLists) {
  constexpr std::size_t kLarge = BlockPool::kMaxPooledBytes + 1;
  void* const block = BlockPool::allocate(kLarge);
  BlockPool::deallocate(block, kLarge);
  EXPECT_EQ(BlockPool::cached(kLarge), 0U);
}

TEST(BlockPool, BlockFreedOnAnotherThreadJoinsThatThreadsList) {
  void* const block = BlockPool::allocate(kBytes);
  void* reused = nullptr;
  std::size_t cached_after_free = 0;
  std::thread([&] {
    BlockPool::deallocate(block, kBytes);
    cached_after_free = BlockPool::cached(kBytes);
    reused = BlockPool::allocate(kBytes);
    BlockPool::deallocate(reused, kBytes);
  }).join();  // the thread's lists go back to the heap as it exits
  EXPECT_EQ(cached_after_free, 1U);
  EXPECT_EQ(reused, block);
}

// Set by ExitFreer's destructor as its thread exits.
std::atomic<std::size_t> g_cached_before_exit_free{~std::size_t{0}};
std::atomic<std::size_t> g_cached_after_exit_free{~std::size_t{0}};

/// Holds one block until its thread exits, then frees it.
struct ExitFreer {
  void* block = nullptr;
  ~ExitFreer() {
    g_cached_before_exit_free = BlockPool::cached(kBytes);
    BlockPool::deallocate(block, kBytes);
    g_cached_after_exit_free = BlockPool::cached(kBytes);
  }
};

TEST(BlockPool, BlockFreedAfterTheThreadsListsAreGoneReturnsToTheHeap) {
  std::size_t cached_while_running = 0;
  std::thread([&] {
    // Constructed before this thread first caches a block, so it is
    // destroyed after the thread's lists are given back.
    thread_local ExitFreer holder;
    holder.block = BlockPool::allocate(kBytes);
    BlockPool::deallocate(BlockPool::allocate(kBytes), kBytes);
    cached_while_running = BlockPool::cached(kBytes);
  }).join();
  EXPECT_EQ(cached_while_running, 1U);
  EXPECT_EQ(g_cached_before_exit_free.load(), 0U) << "lists not given back before the holder";
  EXPECT_EQ(g_cached_after_exit_free.load(), 0U) << "block cached on a finished thread";
}

struct Counted {
  explicit Counted(std::atomic<int>& live) : live(&live) { ++live; }
  ~Counted() { --*live; }
  std::atomic<int>* live;
  std::uint64_t payload[4] = {};
};

TEST(BlockPool, PooledSharedObjectsDieOnTheThreadThatDropsThem) {
  std::atomic<int> live{0};
  std::vector<std::shared_ptr<Counted>> made;
  for (int i = 0; i < 100; ++i) made.push_back(make_pooled<Counted>(live));
  EXPECT_EQ(live.load(), 100);
  std::thread([moved = std::move(made)]() mutable { moved.clear(); }).join();
  EXPECT_EQ(live.load(), 0);
}

TEST(BlockPool, FourThreadsPassingPooledObjectsAround) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<int> live{0};
  std::mutex mu;
  std::vector<std::shared_ptr<Counted>> shared;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        std::shared_ptr<Counted> mine = make_pooled<Counted>(live);
        mine->payload[0] = static_cast<std::uint64_t>(i);
        std::shared_ptr<Counted> theirs;
        {
          const std::lock_guard<std::mutex> lock(mu);
          shared.push_back(std::move(mine));
          if (shared.size() > 8) {
            theirs = std::move(shared.front());
            shared.erase(shared.begin());
          }
        }
        // Dropped here, usually on a thread other than its maker.
        if (theirs) {
          EXPECT_LT(theirs->payload[0], static_cast<std::uint64_t>(kPerThread));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  shared.clear();
  EXPECT_EQ(live.load(), 0);
}

}  // namespace
}  // namespace sa::util
