// High-throughput exploration engine behind explore_dfs / explore_random.
//
// The frontier search runs a fixed pool of workers over explicit stack frames
// (Model + schedule chain + depth) instead of recursion:
//
//   * each worker expands frames from a private stack (LIFO — depth-first,
//     keeps the frontier small) and owns a mutex-guarded deque. While
//     another worker sleeps, it moves the older half of its stack to the
//     back of its deque; idle workers steal from the front of a victim's
//     deque (FIFO — steals the shallowest frame, i.e. the largest remaining
//     subtree), and an owner whose stack runs dry pops its deque's back.
//     No lock is taken while nobody is idle;
//   * the termination test (pending_) counts the frames in the deques plus
//     the busy workers, so expanding a frame never writes it: it changes
//     when a share moves frames into a deque, when a busy worker whose stack
//     ran dry takes a frame from a deque, and when a busy worker goes idle;
//   * the pool is seeded by expanding a breadth-first prefix of the tree
//     until there are a few frames per worker to spread across the deques,
//     dealt so that worker w starts on the w-th frame: together the workers
//     sweep the tree from its first choices on, as one thread would;
//   * visited-state deduplication goes through a sharded open-addressing
//     fingerprint set (util/fingerprint_set.hpp) reserved from max_states,
//     16 shards at every thread count so a growing shard overshoots the
//     table's size by only 1/16: an insert is one lock-free compare-and-swap
//     on the slot, a frame's inserts share one stop-the-world handshake
//     (ShardedFingerprintSet::ScopedWriter), and the state cap is checked
//     against per-worker fresh-insert counts published in batches (exact at
//     one thread), so no shared counter is touched on each edge. A
//     depth-bounded search (max_depth > 0) also keeps each state's remaining
//     depth beside its slot and expands a state again when it is reached
//     with more depth left (see below); an unbounded one maps no such array;
//   * a frame's children are all forked, applied and keyed before the first
//     is inserted, and each key's home slot is prefetched as it is made, so
//     the inserts overlap their cache misses; the per-edge accounting then
//     runs child by child in the same order as a one-at-a-time loop would.
//     A child's sleep set enters its key as a hash sum, and the set itself
//     (check/sleep_set.hpp) is built only once the insert finds the child
//     fresh, so the ~63% of children that are duplicates copy none;
//   * a frame owns its model through a unique_ptr drawn from a per-worker
//     pool; it is expanded by applying each enabled choice to a fork of the
//     model, a copy-assignment into a recycled model that reuses its
//     buffers and does not allocate. The last child steals the parent's
//     model, so a node with k children costs k-1 copies, and a quiescent
//     leaf is finalized in place (no defensive copy);
//   * schedule nodes and the messages the cores send come from per-thread
//     free lists (util/block_pool.hpp), so a warm search allocates on almost
//     no edge;
//   * per-worker stats and queues and the shared counters each sit on their
//     own cache line: apart from the visited slot it claims, an edge writes
//     no line another worker writes.
//
// Determinism: with threads == 1 frames expand in depth-first preorder and
// results are bit-identical run to run. With N threads the expansion order is
// nondeterministic, but on a search that completes without hitting a budget
// every unique state is still expanded exactly once, so the verdict and the
// dedup-invariant totals (states_explored, edges_by_kind, states_deduped,
// runs_completed, sleep_pruned, outcomes) are identical for any thread
// count; max_depth_reached, expanded_by_depth and the totals of
// budget-capped searches are not guaranteed. When violations are found
// concurrently the canonically least schedule (shortest, then lexicographic)
// among them is returned.
//
// Depth bounds: a state first reached deep in one branch may be reached
// again with more depth left in another, and which comes first depends on
// the thread split. Such a revisit is expanded again once the bound has cut
// any branch (before that, no subtree can be missing anything), so every
// state within the bound is expanded with the most depth any path reaching
// it leaves, and a depth-capped search reaches the same verdict at every
// thread count unless its state budget runs out first. At one thread the
// earlier expansion's subtree is finished before the revisit; with more, a
// worker may still be inside it, so a revisit skipped before the first cut
// makes that cut stop the search, which then runs again expanding every
// such revisit from the start. A bound the search never hits changes
// nothing: its counts equal the unbounded search's.
//
// Reductions (ExploreOptions::dpor / ::symmetry, frontier search only;
// random walks ignore both):
//
//   * DPOR sleep sets — each Frame carries the choices whose subtrees an
//     earlier sibling already covers up to reordering of independent choices
//     (independence per check/model.hpp choices_dependent). Sleeping choices
//     are skipped; a frame whose every enabled choice sleeps counts as
//     sleep_pruned, not as quiescent or capped. The visited key mixes in a
//     commutative hash of the sleep set: re-reaching a state under a
//     different sleep set re-explores it, which is what keeps sleep sets
//     sound in combination with state caching.
//   * Symmetry — the visited key becomes Model::canonical_fingerprint(),
//     one hash per orbit of same-role agent permutations. Thread-count
//     independence survives because orbit-equivalent states generate
//     orbit-equivalent children and the sleep hash is keyed by agent role,
//     never by process id — whichever representative wins the dedup race,
//     the closure of visited keys and all per-key counts are the same.
//
// Counterexamples are unaffected by either reduction: schedules are concrete
// (kind, seq) lists recorded from the actual path, never canonicalized.
#pragma once

#include <cstddef>
#include <cstdint>

#include "check/explorer.hpp"

namespace sa::check {

/// Visited-set shards at every thread count. A growing shard holds its old
/// and new slot arrays at once, so more shards mean a smaller peak; 16 keeps
/// that overshoot near 1/16 of the table while a shard of the exhaustive pair
/// search's table (2^22 slots) still spans whole huge pages.
inline constexpr std::size_t kVisitedShards = 16;

}  // namespace sa::check
