#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/bitset64.hpp"
#include "util/fingerprint_set.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/small_vector.hpp"
#include "util/strings.hpp"

namespace sa::util {
namespace {

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0U);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.next_double();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(Rng, NextBoolExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, NextBoolRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.next_bool(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7U);  // all values hit
}

TEST(Rng, WorksWithStdShuffle) {
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  Rng rng(23);
  std::shuffle(values.begin(), values.end(), rng);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

// --- strings -------------------------------------------------------------------

TEST(Strings, SplitBasic) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split(",a,,b,", ','), (std::vector<std::string>{"", "a", "", "b", ""}));
}

TEST(Strings, SplitNoDelimiter) {
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("foo", "foobar"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(Strings, ParseDoubleAcceptsPlainNumbers) {
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("0.25"), 0.25);
  EXPECT_EQ(parse_double("1"), 1.0);
  EXPECT_EQ(parse_double("-2.5"), -2.5);
}

TEST(Strings, ParseDoubleRejectsJunk) {
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double("abc"));
  EXPECT_FALSE(parse_double("0.5x"));
  EXPECT_FALSE(parse_double("1.0 "));
  EXPECT_FALSE(parse_double(" 1.0"));
}

TEST(Strings, ParseU64AcceptsDigits) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
}

TEST(Strings, ParseU64RejectsJunk) {
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("-1"));
  EXPECT_FALSE(parse_u64("3.5"));
  EXPECT_FALSE(parse_u64("12x"));
  EXPECT_FALSE(parse_u64("99999999999999999999999"));  // overflow
}

// --- logging ---------------------------------------------------------------------

TEST(Log, SinkReceivesMessagesAtOrAboveLevel) {
  std::vector<std::string> captured;
  set_log_sink([&](LogLevel level, std::string_view component, std::string_view message) {
    captured.push_back(std::string(to_string(level)) + "/" + std::string(component) + "/" +
                       std::string(message));
  });
  const LogLevel previous = log_level();
  set_log_level(LogLevel::Info);
  SA_DEBUG("test") << "hidden";
  SA_INFO("test") << "visible " << 42;
  SA_ERROR("other") << "bad";
  set_log_level(previous);
  reset_log_sink();

  ASSERT_EQ(captured.size(), 2U);
  EXPECT_EQ(captured[0], "INFO/test/visible 42");
  EXPECT_EQ(captured[1], "ERROR/other/bad");
}

TEST(Log, LevelNames) {
  EXPECT_EQ(to_string(LogLevel::Trace), "TRACE");
  EXPECT_EQ(to_string(LogLevel::Off), "OFF");
}

// --- FingerprintSet ----------------------------------------------------------

TEST(FingerprintSet, InsertReportsNovelty) {
  FingerprintSet set;
  EXPECT_TRUE(set.insert(42));
  EXPECT_FALSE(set.insert(42));
  EXPECT_TRUE(set.insert(7));
  EXPECT_EQ(set.size(), 2U);
  EXPECT_TRUE(set.contains(42));
  EXPECT_TRUE(set.contains(7));
  EXPECT_FALSE(set.contains(8));
}

TEST(FingerprintSet, ZeroIsAStorableValue) {
  // 0 is the internal empty-slot sentinel; the public API must still treat it
  // as an ordinary value.
  FingerprintSet set;
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 1U);
}

TEST(FingerprintSet, GrowsPastReservation) {
  FingerprintSet set(/*expected=*/4);
  Rng rng(99);
  std::set<std::uint64_t> reference;
  for (int i = 0; i < 5'000; ++i) {
    const std::uint64_t value = rng.next_u64();
    EXPECT_EQ(set.insert(value), reference.insert(value).second);
  }
  EXPECT_EQ(set.size(), reference.size());
  for (const std::uint64_t value : reference) EXPECT_TRUE(set.contains(value));
}

TEST(FingerprintSet, ReservationAvoidsEarlyGrowth) {
  FingerprintSet set(/*expected=*/1'000);
  const std::size_t initial = set.capacity();
  for (std::uint64_t i = 1; i <= 1'000; ++i) set.insert(i * 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(set.capacity(), initial);
}

TEST(FingerprintSet, GrowsOnlyPastFifteenSixteenthsOfItsReservation) {
  // 15,360 is exactly 15/16 of 16,384: the reservation is that power of two,
  // and the set fills it to the bound before its first doubling.
  FingerprintSet set(/*expected=*/15'360);
  ASSERT_EQ(set.capacity(), 16'384U);
  for (std::uint64_t i = 1; i <= 15'360; ++i) set.insert(i * 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(set.capacity(), 16'384U);
  set.insert(15'361 * 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(set.capacity(), 32'768U);
  EXPECT_EQ(set.size(), 15'361U);
}

TEST(FingerprintSet, HugeExpectedCountReservesOnlyTheCap) {
  // expected * 2 used to wrap, and the power-of-two search never ended.
  const FingerprintSet set(std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(set.capacity(), std::size_t{1} << 22);
}

TEST(ShardedFingerprintSet, ReservationCapCoversAllShards) {
  ShardedFingerprintSet set(/*expected=*/20'000'000, /*shards=*/4);
  EXPECT_LE(set.capacity(), std::size_t{1} << 22);
  Rng rng(5);
  std::size_t fresh = 0;
  for (int i = 0; i < 4'000'000; ++i) fresh += set.insert(rng.next_u64()) ? 1 : 0;
  EXPECT_EQ(fresh, 4'000'000U);  // 64-bit values: a repeat would be a fluke
  EXPECT_EQ(set.size(), fresh);
  EXPECT_GT(set.capacity(), std::size_t{1} << 22);  // grew past the reservation
}

TEST(ShardedFingerprintSet, PeakBytesAreFinalPlusLargestShardGrownFrom) {
  // 16 shards of 4096 slots; 90,000 values put about 5,625 in each (sigma
  // 75), far past 15/16 of 4096 (3,840) and far below 15/16 of 8192 (7,680),
  // so every shard doubles exactly once. Old arrays are unmapped right after
  // their rehash: the peak is the final table plus one 4096-slot shard.
  ShardedFingerprintSet set(/*expected=*/32'768, /*shards=*/16);
  ASSERT_EQ(set.capacity(), 16U * 4096);
  EXPECT_EQ(set.peak_bytes(), set.capacity() * sizeof(std::uint64_t));
  Rng rng(3);
  for (int i = 0; i < 90'000; ++i) set.insert(rng.next_u64());
  ASSERT_EQ(set.capacity(), 16U * 8192);
  EXPECT_EQ(set.peak_bytes(), (16U * 8192 + 4096) * sizeof(std::uint64_t));
}

TEST(ShardedFingerprintSet, OneShardPeaksAtOneAndAHalfTimesItsFinalSize) {
  // 10,000 values pass 15/16 of 8,192 (7,680) and stay under 15/16 of
  // 16,384 (15,360): the last growth is 8,192 -> 16,384 slots.
  ShardedFingerprintSet set(/*expected=*/16, /*shards=*/1);
  Rng rng(4);
  for (int i = 0; i < 10'000; ++i) set.insert(rng.next_u64());
  ASSERT_EQ(set.capacity(), 16'384U);
  EXPECT_EQ(set.peak_bytes(), (16'384U + 8'192U) * sizeof(std::uint64_t));
}

/// Inserts `values` from eight threads, each walking the whole stream from
/// its own offset, so every value is offered eight times, concurrently,
/// across growths; returns the inserts that reported a fresh value.
std::size_t insert_from_eight_threads(ShardedFingerprintSet& set,
                                      const std::vector<std::uint64_t>& values) {
  constexpr int kThreads = 8;
  std::atomic<std::size_t> fresh{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::size_t local = 0;
      const std::size_t offset = values.size() / kThreads * static_cast<std::size_t>(t);
      for (std::size_t i = 0; i < values.size(); ++i) {
        const std::uint64_t value = values[(offset + i) % values.size()];
        set.prefetch(value);
        if (set.insert(value)) ++local;
      }
      fresh.fetch_add(local);
    });
  }
  for (std::thread& th : pool) th.join();
  return fresh.load();
}

TEST(ShardedFingerprintSetParallel, GrowsWhileEightThreadsInsert) {
  // A 64-slot-per-shard reservation and 100k distinct values force every
  // shard through many growths while all eight threads keep inserting.
  ShardedFingerprintSet set(/*expected=*/16, /*shards=*/4);
  const std::size_t initial_capacity = set.capacity();
  std::vector<std::uint64_t> values;
  Rng rng(11);
  for (int i = 0; i < 100'000; ++i) values.push_back(rng.next_u64());
  const std::size_t fresh = insert_from_eight_threads(set, values);
  const std::set<std::uint64_t> reference(values.begin(), values.end());
  EXPECT_EQ(fresh, reference.size());
  EXPECT_EQ(set.size(), reference.size());
  EXPECT_GE(set.capacity(), initial_capacity * 256);
  for (const std::uint64_t value : values) EXPECT_FALSE(set.insert(value));
}

TEST(ShardedFingerprintSetParallel, SixteenShardsGrowWhileEightThreadsInsert) {
  // The explorer's layout: 16 shards. 192k values put about 12,000 in each
  // (sigma 110): past 15/16 of 8,192 (7,680) even with eight threads' worth
  // of unpublished counts, and under 15/16 of 16,384 (15,360). So every
  // shard ends at 16,384 slots after growing from 8,192 — and growths are
  // serialized, so the peak is the final table plus one such shard, however
  // the threads interleave.
  ShardedFingerprintSet set(/*expected=*/16, /*shards=*/16);
  std::vector<std::uint64_t> values;
  Rng rng(12);
  for (int i = 0; i < 192'000; ++i) values.push_back(rng.next_u64());
  const std::size_t fresh = insert_from_eight_threads(set, values);
  const std::set<std::uint64_t> reference(values.begin(), values.end());
  EXPECT_EQ(fresh, reference.size());
  EXPECT_EQ(set.size(), reference.size());
  ASSERT_EQ(set.capacity(), 16U * 16'384);
  EXPECT_EQ(set.peak_bytes(), (16U * 16'384 + 8'192) * sizeof(std::uint64_t));
  for (const std::uint64_t value : values) EXPECT_FALSE(set.insert(value));
}

TEST(ShardedFingerprintSetParallel, SixteenShardsFillToFifteenSixteenthsThenGrowOnce) {
  // The explorer's reservation rule at its own scale: 2^20 slots in 16
  // shards of 65,536. Filled to 0.92 (about 60,290 per shard, sigma 245,
  // 4.7 sigma under 15/16 = 61,440) the set must not grow. Filled to 0.97
  // (about 63,570 per shard, 8.7 sigma past it, and under 2^16 itself)
  // every shard must grow exactly once.
  constexpr std::size_t kSlots = std::size_t{1} << 20;
  const std::size_t fill = kSlots * 92 / 100;
  ShardedFingerprintSet set(/*expected=*/fill, /*shards=*/16);
  ASSERT_EQ(set.capacity(), kSlots);
  std::vector<std::uint64_t> values;
  Rng rng(13);
  for (std::size_t i = 0; i < fill; ++i) values.push_back(rng.next_u64());
  std::set<std::uint64_t> reference(values.begin(), values.end());
  EXPECT_EQ(insert_from_eight_threads(set, values), reference.size());
  EXPECT_EQ(set.size(), reference.size());
  EXPECT_EQ(set.capacity(), kSlots);
  EXPECT_EQ(set.peak_bytes(), kSlots * sizeof(std::uint64_t));

  std::vector<std::uint64_t> more;
  for (std::size_t i = fill; i < kSlots * 97 / 100; ++i) more.push_back(rng.next_u64());
  const std::size_t before = reference.size();
  reference.insert(more.begin(), more.end());
  EXPECT_EQ(insert_from_eight_threads(set, more), reference.size() - before);
  EXPECT_EQ(set.size(), reference.size());
  ASSERT_EQ(set.capacity(), 2 * kSlots);
  EXPECT_EQ(set.peak_bytes(), (2 * kSlots + kSlots / 16) * sizeof(std::uint64_t));
  for (const std::uint64_t value : values) EXPECT_FALSE(set.insert(value));
}

TEST(ShardedFingerprintSetParallel, ConcurrentInsertsAgreeWithReference) {
  ShardedFingerprintSet set(/*expected=*/10'000, /*shards=*/8);
  // Every thread inserts the same value stream: exactly one insert() per
  // value may return true no matter how the threads interleave.
  std::vector<std::uint64_t> values;
  Rng rng(7);
  for (int i = 0; i < 20'000; ++i) values.push_back(rng.next_u64() % 10'000 + 1);
  std::atomic<std::size_t> fresh{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      std::size_t local = 0;
      for (const std::uint64_t value : values) {
        if (set.insert(value)) ++local;
      }
      fresh.fetch_add(local);
    });
  }
  for (std::thread& th : pool) th.join();
  const std::set<std::uint64_t> reference(values.begin(), values.end());
  EXPECT_EQ(fresh.load(), reference.size());
  EXPECT_EQ(set.size(), reference.size());
}

TEST(ShardedFingerprintSetParallel, SingleShardStillWorks) {
  ShardedFingerprintSet set(/*expected=*/16, /*shards=*/1);
  EXPECT_EQ(set.shard_count(), 1U);
  EXPECT_TRUE(set.insert(1));
  EXPECT_FALSE(set.insert(1));
  EXPECT_EQ(set.size(), 1U);
}

TEST(ShardedFingerprintSetParallel, ShardCountRoundsUpToPowerOfTwo) {
  ShardedFingerprintSet set(/*expected=*/16, /*shards=*/3);
  EXPECT_EQ(set.shard_count(), 4U);
}

TEST(ShardedFingerprintSet, BudgetsRaiseOnlyUpward) {
  using Insert = ShardedFingerprintSet::Insert;
  ShardedFingerprintSet set(/*expected=*/16, /*shards=*/4, /*budgets=*/true);
  ShardedFingerprintSet::ScopedWriter writer(set);
  EXPECT_EQ(writer.insert(42, 5), Insert::Fresh);
  EXPECT_EQ(writer.insert(42, 5), Insert::Present);
  EXPECT_EQ(writer.insert(42, 3), Insert::Present);
  EXPECT_EQ(writer.insert(42, 7), Insert::Raised);
  EXPECT_EQ(writer.insert(42, 7), Insert::Present);
  EXPECT_EQ(writer.insert(43, 0), Insert::Fresh);
  EXPECT_EQ(writer.insert(43, 0), Insert::Present);
  EXPECT_EQ(writer.insert(43, 1), Insert::Raised);
}

TEST(ShardedFingerprintSet, BudgetsSurviveGrowth) {
  using Insert = ShardedFingerprintSet::Insert;
  ShardedFingerprintSet set(/*expected=*/16, /*shards=*/2, /*budgets=*/true);
  const std::size_t initial_capacity = set.capacity();
  std::vector<std::uint64_t> values;
  Rng rng(21);
  for (int i = 0; i < 5'000; ++i) values.push_back(rng.next_u64());
  {
    ShardedFingerprintSet::ScopedWriter writer(set);
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(writer.insert(values[i], static_cast<std::uint32_t>(i % 7)), Insert::Fresh);
    }
  }
  ASSERT_GT(set.capacity(), initial_capacity * 16);
  ShardedFingerprintSet::ScopedWriter writer(set);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto budget = static_cast<std::uint32_t>(i % 7);
    EXPECT_EQ(writer.insert(values[i], budget), Insert::Present);
    EXPECT_EQ(writer.insert(values[i], budget + 1), Insert::Raised);
  }
}

TEST(ShardedFingerprintSet, PeakBytesCountTheBudgetArrays) {
  // As PeakBytesAreFinalPlusLargestShardGrownFrom, with 4 budget bytes
  // beside every 8-byte slot.
  ShardedFingerprintSet set(/*expected=*/32'768, /*shards=*/16, /*budgets=*/true);
  ASSERT_EQ(set.capacity(), 16U * 4096);
  EXPECT_EQ(set.peak_bytes(), set.capacity() * 12);
  Rng rng(3);
  ShardedFingerprintSet::ScopedWriter writer(set);
  for (int i = 0; i < 90'000; ++i) writer.insert(rng.next_u64(), 1);
  ASSERT_EQ(set.capacity(), 16U * 8192);
  EXPECT_EQ(set.peak_bytes(), (16U * 8192 + 4096) * 12);
}

// --- SmallVector -------------------------------------------------------------

TEST(SmallVector, StaysInlineUpToCapacityThenSpills) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.inline_storage());
  v.push_back(4);
  EXPECT_FALSE(v.inline_storage());
  ASSERT_EQ(v.size(), 5U);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, TriviallyCopyableElementsCopyAndMoveAsBytes) {
  SmallVector<std::uint64_t, 4> small;
  for (std::uint64_t i = 0; i < 3; ++i) small.push_back(i + 1);
  SmallVector<std::uint64_t, 4> big;
  for (std::uint64_t i = 0; i < 9; ++i) big.push_back(i * 10);
  SmallVector<std::uint64_t, 4> target = big;  // spilled
  target = small;                              // shrinks in place
  ASSERT_EQ(target.size(), 3U);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(target[i], i + 1);
  target = big;  // grows back into its spilled buffer
  ASSERT_EQ(target.size(), 9U);
  EXPECT_EQ(target[8], 80U);
  SmallVector<std::uint64_t, 4> inline_copy;
  inline_copy = small;  // fits inline
  EXPECT_TRUE(inline_copy.inline_storage());
  SmallVector<std::uint64_t, 4> moved(std::move(inline_copy));
  EXPECT_TRUE(moved.inline_storage());
  ASSERT_EQ(moved.size(), 3U);
  EXPECT_EQ(moved[2], 3U);
  EXPECT_TRUE(inline_copy.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
}

TEST(SmallVector, CopyAndMovePreserveElements) {
  SmallVector<std::string, 2> v;
  v.push_back("a");
  v.push_back("b");
  v.push_back("c");  // spilled

  SmallVector<std::string, 2> copy(v);
  ASSERT_EQ(copy.size(), 3U);
  EXPECT_EQ(copy[2], "c");

  SmallVector<std::string, 2> moved(std::move(v));
  ASSERT_EQ(moved.size(), 3U);
  EXPECT_EQ(moved[0], "a");
  EXPECT_EQ(moved[2], "c");

  copy = moved;
  ASSERT_EQ(copy.size(), 3U);
  EXPECT_EQ(copy[1], "b");
}

TEST(SmallVector, EraseShiftsTail) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  v.erase(v.begin() + 1);
  ASSERT_EQ(v.size(), 3U);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[1], 2);
  EXPECT_EQ(v[2], 3);
}

// --- IdSet64 -----------------------------------------------------------------

TEST(IdSet64, InsertContainsAndSize) {
  IdSet64 set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.insert(3));
  EXPECT_FALSE(set.insert(3));
  EXPECT_TRUE(set.insert(0));
  EXPECT_TRUE(set.insert(63));
  EXPECT_EQ(set.size(), 3U);
  EXPECT_TRUE(set.contains(63));
  EXPECT_FALSE(set.contains(62));
  EXPECT_FALSE(set.contains(100));  // out of range, not UB
}

TEST(IdSet64, SizeCountsEveryMember) {
  // size() counts bits in registers; check it against insertion counts on
  // sparse, dense and full sets.
  Rng rng(11);
  for (int round = 0; round < 200; ++round) {
    IdSet64 set;
    std::size_t members = 0;
    const std::uint64_t density = 1 + rng.next_below(64);
    for (std::uint32_t id = 0; id < 64; ++id) {
      if (rng.next_below(64) < density && set.insert(id)) ++members;
    }
    ASSERT_EQ(set.size(), members) << "mask " << set.mask();
  }
  IdSet64 full;
  for (std::uint32_t id = 0; id < 64; ++id) full.insert(id);
  EXPECT_EQ(full.size(), 64U);
}

TEST(IdSet64, IteratesInAscendingOrder) {
  IdSet64 set;
  set.insert(9);
  set.insert(1);
  set.insert(40);
  std::vector<std::uint32_t> seen;
  for (const std::uint32_t id : set) seen.push_back(id);
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1, 9, 40}));
}

TEST(IdSet64, EqualityIsSetEquality) {
  IdSet64 a, b;
  a.insert(5);
  a.insert(6);
  b.insert(6);
  b.insert(5);
  EXPECT_EQ(a, b);
  b.insert(7);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace sa::util
