#include "check/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/sleep_set.hpp"
#include "util/block_pool.hpp"
#include "util/fingerprint_set.hpp"
#include "util/rng.hpp"
#include "util/small_vector.hpp"

namespace sa::check {

namespace {

/// Upper bound on proto::AdaptationOutcome enumerators; leaf outcomes are
/// counted in a flat array indexed by the enum and stringified once at merge
/// time instead of hitting a map<string, size_t> per leaf.
constexpr std::size_t kOutcomeSlots = 8;

/// Per-worker state and the shared counters each sit on their own cache line,
/// so one worker's per-edge writes never invalidate a line another reads.
constexpr std::size_t kCacheLine = 64;

int effective_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Immutable reversed schedule: each frame holds the chain of choices that
/// produced it. Shared between a parent's children (shared_ptr refcounts are
/// atomic), so extending a schedule is O(1) instead of copying the prefix.
/// Nodes come from the per-thread block pool (util/block_pool.hpp), which
/// takes back a node on whichever worker drops the last reference to it.
struct PathNode {
  Choice choice;
  std::shared_ptr<const PathNode> parent;
};
using PathPtr = std::shared_ptr<const PathNode>;

std::vector<Choice> unwind(const PathPtr& tip) {
  std::vector<Choice> schedule;
  for (const PathNode* node = tip.get(); node != nullptr; node = node->parent.get()) {
    schedule.push_back(node->choice);
  }
  std::reverse(schedule.begin(), schedule.end());
  return schedule;
}

/// Canonical order on counterexample schedules: shorter first, then
/// lexicographic on (kind, seq). Used to pick one witness deterministically
/// when parallel workers find violations concurrently.
bool schedule_less(const std::vector<Choice>& a, const std::vector<Choice>& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind) return a[i].kind < b[i].kind;
    if (a[i].seq != b[i].seq) return a[i].seq < b[i].seq;
  }
  return false;
}

struct Frame {
  std::unique_ptr<Model> model;
  PathPtr path;
  int depth = 0;
  SleepSet sleep;
};

/// One worker's recycled models. A fork copy-assigns the parent into a model
/// that an earlier frame left behind, reusing its inline buffers, so a fork
/// does not allocate once the pool is warm. Deduplicated, pruned and
/// finished models come back here; a model stolen by another worker returns
/// to that worker's pool.
class ModelPool {
 public:
  std::unique_ptr<Model> fork(const Model& parent) {
    if (free_.empty()) return std::make_unique<Model>(parent);
    std::unique_ptr<Model> model = std::move(free_.back());
    free_.pop_back();
    *model = parent;
    return model;
  }

  void recycle(std::unique_ptr<Model> model) {
    if (free_.size() < kMaxFree) free_.push_back(std::move(model));
  }

 private:
  /// A depth-first worker needs a handful; the cap bounds what piles up in
  /// a worker that finishes many frames stolen from others.
  static constexpr std::size_t kMaxFree = 64;
  std::vector<std::unique_ptr<Model>> free_;
};

struct alignas(kCacheLine) WorkerStats {
  std::size_t states_explored = 0;
  std::size_t states_deduped = 0;
  std::size_t runs_completed = 0;
  std::size_t depth_capped = 0;
  std::size_t sleep_pruned = 0;
  int max_depth_reached = 0;
  std::array<std::size_t, kOutcomeSlots> outcomes{};
  std::array<std::size_t, Choice::kKinds> edges_by_kind{};
  std::vector<std::size_t> expanded_by_depth;
  std::size_t unpublished = 0;  ///< fresh visited inserts not yet counted in inserted_
};

/// One generated child of the frame being expanded, keyed and waiting for
/// its dedup insert. Its sleep set is built only if the insert finds it
/// fresh; until then the key carries the set's hash alone.
struct Child {
  std::unique_ptr<Model> model;
  Choice choice;
  std::uint64_t key = 0;
};

/// Per-worker scratch buffers and model pool for expand_children, reused
/// across frames so the hot loop does not allocate. With DPOR, `footprints`
/// holds the awake choices in orbit-stable order and `entries` their sleep
/// entries, index for index.
struct Scratch {
  std::vector<Choice> choices;
  std::vector<ChoiceFootprint> footprints;
  std::vector<SleepEntry> entries;
  std::vector<Child> children;
  ModelPool pool;
};

/// Orbit-stable ordering for DPOR sibling-sleep construction. The "earlier
/// siblings go to sleep in later children" rule depends on choice order, and
/// Model::choices() enumerates in-flight messages in global creation order —
/// which canonical_fingerprint() deliberately erases. Two representatives of
/// the same canonical state must build the same abstract (child, sleep) pairs
/// regardless of which one won the dedup race, so the awake list is
/// stable-sorted by this seq-free, pid-free key first. Ties are either
/// same-channel messages (stable sort keeps their FIFO order, which equal
/// canonical fingerprints also agree on) or fully symmetric twins (either
/// order yields orbit-equivalent children).
bool footprint_order_less(const ChoiceFootprint& a, const ChoiceFootprint& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.role != b.role) return a.role < b.role;
  if (a.channel_to_manager != b.channel_to_manager) {
    return a.channel_to_manager < b.channel_to_manager;
  }
  return a.content < b.content;
}

struct alignas(kCacheLine) WorkerQueue {
  std::mutex mu;
  std::deque<Frame> frames;
};

using Insert = util::ShardedFingerprintSet::Insert;

class FrontierEngine {
 public:
  /// `expand_every_raise` makes a revisit with more depth left always expand
  /// again (the rerun of a parallel bounded search, see expand_raised()).
  FrontierEngine(const ExploreOptions& options, int threads, bool expand_every_raise)
      : options_(&options),
        threads_(threads),
        expand_every_raise_(expand_every_raise),
        depth_limit_(options.max_depth > 0 ? options.max_depth
                                           : std::numeric_limits<int>::max()),
        // One fresh insert per batch at one thread keeps the cap exact; with
        // more workers, batches keep the shared counter off the per-edge path
        // while bounding the overshoot to a sixty-fourth of the cap.
        publish_batch_(threads == 1 ? 1
                                    : std::clamp<std::size_t>(
                                          options.max_states /
                                              (static_cast<std::size_t>(threads) * 64),
                                          1, 256)),
        // Only a depth-bounded search keeps each state's remaining depth.
        visited_(options.max_states, kVisitedShards, /*budgets=*/options.max_depth > 0),
        queues_(static_cast<std::size_t>(threads)),
        stats_(static_cast<std::size_t>(threads)) {}

  /// Marks the root visited; it counts toward max_states like every other
  /// distinct state.
  void insert_root(const Model& model) {
    util::ShardedFingerprintSet::ScopedWriter(visited_).insert(dedup_key(model, 0), budget_at(0));
  }

  /// True when the search stopped, or would have ended, with a state left
  /// unexpanded that a depth cut may have needed again (expand_raised()):
  /// the caller reruns it with expand_every_raise. A counterexample found
  /// meanwhile is real and stands.
  bool needs_rerun() const {
    return skipped_raise_.load(std::memory_order_relaxed) &&
           depth_cut_.load(std::memory_order_relaxed) && !counterexample_;
  }

  /// Seeds the deques from `root` and runs the pool to completion.
  void run(Frame&& root, int threads) {
    if (threads == 1) {
      run_sequential(std::move(root));
      return;
    }
    seed_breadth_first(std::move(root), threads);
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([this, t] { worker_loop(t); });
    }
    for (std::thread& th : pool) th.join();
  }

  void merge_into(ExploreResult& result) {
    for (const WorkerStats& ws : stats_) {
      result.stats.states_explored += ws.states_explored;
      result.stats.states_deduped += ws.states_deduped;
      result.stats.runs_completed += ws.runs_completed;
      result.stats.depth_capped += ws.depth_capped;
      result.stats.sleep_pruned += ws.sleep_pruned;
      result.stats.max_depth_reached =
          std::max(result.stats.max_depth_reached, ws.max_depth_reached);
      for (std::size_t i = 0; i < kOutcomeSlots; ++i) {
        if (ws.outcomes[i] == 0) continue;
        result.stats.outcomes[std::string(
            to_string(static_cast<proto::AdaptationOutcome>(i)))] += ws.outcomes[i];
      }
      for (std::size_t k = 0; k < Choice::kKinds; ++k) {
        result.stats.edges_by_kind[k] += ws.edges_by_kind[k];
      }
      std::vector<std::size_t>& depths = result.stats.expanded_by_depth;
      if (depths.size() < ws.expanded_by_depth.size()) depths.resize(ws.expanded_by_depth.size());
      for (std::size_t d = 0; d < ws.expanded_by_depth.size(); ++d) {
        depths[d] += ws.expanded_by_depth[d];
      }
    }
    result.stats.visited_peak_bytes = visited_.peak_bytes();
    if (counterexample_) result.counterexample = std::move(counterexample_);
    result.state_budget_reached = state_capped_.load(std::memory_order_relaxed);
    result.complete = !result.state_budget_reached && result.stats.depth_capped == 0 &&
                      !result.counterexample.has_value();
  }

 private:
  /// Expands one frame: quiescent leaves are finalized in place, depth-capped
  /// frames are counted and dropped, and otherwise each enabled choice is
  /// applied to a fork of the model and keyed, then each child in turn gets
  /// per-edge accounting (explored count, violation check, dedup insert,
  /// state-cap check).
  ///
  /// Surviving children are appended to `out` in REVERSE choice order, so
  /// popping a LIFO stack visits the first choice's subtree first. Each
  /// child but the last is a fork of the parent into a pooled model; the
  /// last steals the parent's model, so a node with k children costs k-1
  /// copies. Deduplicated children, pruned frames and finished leaves return
  /// their models to the worker's pool.
  void expand_children(Frame&& frame, WorkerStats& ws, Scratch& scratch,
                       std::vector<Frame>& out) {
    Model& model = *frame.model;
    // With DPOR the footprints are the source of truth: they carry their
    // choice, and below the sleeping ones are dropped and the rest sorted.
    const bool dpor = options_->dpor;
    std::vector<ChoiceFootprint>& fps = scratch.footprints;
    if (dpor) {
      model.choice_footprints(fps);
    } else {
      model.choices(scratch.choices);
    }
    if (dpor ? fps.empty() : scratch.choices.empty()) {
      model.finalize();
      if (!model.violations().empty()) {
        record_violation(frame.path, nullptr, model.violations());
        return;
      }
      ++ws.runs_completed;
      const auto idx = static_cast<std::size_t>(model.outcome()->outcome);
      assert(idx < kOutcomeSlots);
      ++ws.outcomes[idx];
      scratch.pool.recycle(std::move(frame.model));
      return;
    }
    // DPOR: a sleeping choice's subtree is explored (modulo reorderings of
    // independent choices) from an earlier sibling — skip it here.
    if (dpor && !frame.sleep.empty()) {
      std::erase_if(fps, [&frame](const ChoiceFootprint& fp) {
        for (const SleepEntry& s : frame.sleep) {
          if (s.access.seq == fp.choice.seq && s.access.kind == fp.kind) return true;
        }
        return false;
      });
      if (fps.empty()) {
        // Every enabled choice is asleep. This is neither quiescence nor a
        // depth cap — just a fully redundant interleaving; the search stays
        // complete.
        ++ws.sleep_pruned;
        scratch.pool.recycle(std::move(frame.model));
        return;
      }
    }
    if (frame.depth >= depth_limit_) {
      ++ws.depth_capped;
      if (!depth_cut_.exchange(true, std::memory_order_relaxed) &&
          skipped_raise_.load(std::memory_order_relaxed)) {
        // A state was not expanded again before this first cut showed that
        // the bound cuts the search; only a rerun can cover it (needs_rerun()).
        stop_.store(true, std::memory_order_release);
      }
      scratch.pool.recycle(std::move(frame.model));
      return;
    }
    if (dpor) {
      // Stable insertion sort: an awake list holds a handful of choices, and
      // std::stable_sort would allocate a scratch buffer for every frame.
      for (std::size_t i = 1; i < fps.size(); ++i) {
        const ChoiceFootprint fp = fps[i];
        std::size_t j = i;
        for (; j > 0 && footprint_order_less(fp, fps[j - 1]); --j) fps[j] = fps[j - 1];
        fps[j] = fp;
      }
      scratch.entries.clear();
      for (const ChoiceFootprint& fp : fps) {
        scratch.entries.push_back(sleep_entry(fp));
      }
    }
    const std::size_t awake = dpor ? fps.size() : scratch.choices.size();
    if (ws.expanded_by_depth.size() <= static_cast<std::size_t>(frame.depth)) {
      ws.expanded_by_depth.resize(static_cast<std::size_t>(frame.depth) + 1);
    }
    ++ws.expanded_by_depth[static_cast<std::size_t>(frame.depth)];
    // First pass: fork, apply and key every child, and start loading each
    // key's home slot in the visited set, so the inserts below find their
    // slots in cache instead of each stalling on its own miss. A child's
    // sleep set enters its key as the sum of its entries' hashes; the set
    // itself is built in the second pass, and only for a fresh child.
    std::vector<Child>& children = scratch.children;
    children.clear();
    for (std::size_t i = awake; i > 0; --i) {
      Child& child = children.emplace_back();
      child.choice = dpor ? fps[i - 1].choice : scratch.choices[i - 1];
      std::uint64_t sleep_hash = 0;
      if (dpor) {
        for_each_child_sleep_entry(frame.sleep, scratch.entries, i - 1,
                                   [&sleep_hash](const SleepEntry& s) { sleep_hash += s.hash; });
      }
      // The last child takes the parent's model; the others fork it.
      child.model = i == 1 ? std::move(frame.model) : scratch.pool.fork(model);
      child.model->apply(child.choice);
      child.key = dedup_key(*child.model, sleep_hash);
      visited_.prefetch(child.key);
    }
    // Second pass, in the same order: per-edge accounting (explored count,
    // violation check, dedup insert, state-cap check), with the inserts under
    // one visited-set handshake for the whole frame. Every early return ends
    // the search, so the children it skips are simply dropped.
    const int child_depth = frame.depth + 1;
    const std::uint32_t budget = budget_at(child_depth);
    util::ShardedFingerprintSet::ScopedWriter visited(visited_);
    for (std::size_t i = 0; i < children.size(); ++i) {
      Child& child = children[i];
      if (stop_.load(std::memory_order_relaxed)) return;
      ++ws.states_explored;
      ++ws.edges_by_kind[static_cast<std::size_t>(child.choice.kind)];
      ws.max_depth_reached = std::max(ws.max_depth_reached, child_depth);
      if (!child.model->violations().empty()) {
        record_violation(frame.path, &child.choice, child.model->violations());
        return;
      }
      const Insert found = visited.insert(child.key, budget);
      if (found == Insert::Present || (found == Insert::Raised && !expand_raised())) {
        ++ws.states_deduped;
        scratch.pool.recycle(std::move(child.model));
        continue;
      }
      if (found == Insert::Fresh && count_fresh(ws)) {
        state_capped_.store(true, std::memory_order_relaxed);
        stop_.store(true, std::memory_order_release);
        return;
      }
      SleepSet sleep;
      if (dpor) {
        for_each_child_sleep_entry(frame.sleep, scratch.entries, awake - 1 - i,
                                   [&sleep](const SleepEntry& s) { sleep.push_back(s); });
      }
      // The last child takes the parent's reference to the schedule.
      PathPtr parent = i + 1 == children.size() ? std::move(frame.path) : frame.path;
      out.push_back(Frame{std::move(child.model),
                          util::make_pooled<PathNode>(PathNode{child.choice, std::move(parent)}),
                          child_depth, std::move(sleep)});
    }
  }

  /// The visited-set budget of a state at `depth`: the depth it has left
  /// under max_depth (0, unused, in an unbounded search).
  std::uint32_t budget_at(int depth) const {
    return options_->max_depth > 0 ? static_cast<std::uint32_t>(depth_limit_ - depth) : 0;
  }

  /// Whether a state reached again with more depth left than before is
  /// expanded again. Only a depth cut can have left part of its earlier
  /// subtree unexplored, so before the first cut it is not, and the counts of
  /// a bounded search that the bound never cuts match an unbounded one. At
  /// one thread that is exact: the earlier expansion's subtree was finished
  /// before this revisit, with no cut in it. A worker may still be inside it
  /// when more run, so there the skip is noted and a cut that follows it
  /// stops the search for a rerun that expands every such revisit.
  bool expand_raised() {
    if (expand_every_raise_ || depth_cut_.load(std::memory_order_relaxed)) return true;
    if (threads_ > 1) skipped_raise_.store(true, std::memory_order_relaxed);
    return false;
  }

  /// Counts one fresh visited-set insert toward max_states; true once the
  /// cap is reached. Workers publish their counts in batches of
  /// publish_batch_, so no shared counter is touched on most edges.
  bool count_fresh(WorkerStats& ws) {
    if (++ws.unpublished < publish_batch_) return false;
    const std::size_t total =
        inserted_.fetch_add(ws.unpublished, std::memory_order_relaxed) + ws.unpublished;
    ws.unpublished = 0;
    return total >= options_->max_states;
  }

  /// Visited-set key. With symmetry reduction the state hash is the orbit
  /// representative's; with DPOR the sleep set's commutative hash is mixed in
  /// — revisiting a state with a *different* sleep set must re-explore it
  /// (sleep sets + state caching is otherwise unsound: the first visit may
  /// have skipped transitions the second visit still needs).
  std::uint64_t dedup_key(const Model& model, std::uint64_t sleep_hash) const {
    std::uint64_t key =
        options_->symmetry ? model.canonical_fingerprint() : model.fingerprint();
    if (options_->dpor) key ^= sleep_hash + 0x9e3779b97f4a7c15ULL + (key << 6) + (key >> 2);
    return key;
  }

  /// Single-threaded fast path: a plain vector as the DFS stack, no locks, no
  /// atomics on the hot path, frames expanded in depth-first preorder.
  void run_sequential(Frame&& root) {
    WorkerStats& ws = stats_[0];
    Scratch scratch;
    std::vector<Frame> stack;
    stack.reserve(256);
    stack.push_back(std::move(root));
    while (!stack.empty() && !stop_.load(std::memory_order_relaxed)) {
      Frame frame = std::move(stack.back());
      stack.pop_back();
      expand_children(std::move(frame), ws, scratch, stack);
    }
  }

  /// Expands a breadth-first prefix of the tree until there are a few frames
  /// per worker, then deals the frontier round-robin across the deques, each
  /// deque in reverse: an owner pops its deque's back, so worker w starts on
  /// the w-th frame and the workers together sweep the tree from its first
  /// choices on, as one thread would, while thieves take the last frames.
  void seed_breadth_first(Frame&& root, int threads) {
    const std::size_t target = static_cast<std::size_t>(threads) * 8;
    std::deque<Frame> frontier;
    frontier.push_back(std::move(root));
    Scratch scratch;
    std::vector<Frame> buffer;
    while (!frontier.empty() && frontier.size() < target &&
           !stop_.load(std::memory_order_relaxed)) {
      Frame frame = std::move(frontier.front());
      frontier.pop_front();
      buffer.clear();
      expand_children(std::move(frame), stats_[0], scratch, buffer);
      // buffer is in reverse choice order; append backward to keep the
      // frontier in breadth-first choice order.
      for (std::size_t i = buffer.size(); i > 0; --i) {
        frontier.push_back(std::move(buffer[i - 1]));
      }
    }
    pending_.store(frontier.size(), std::memory_order_relaxed);
    std::size_t next_queue = 0;
    while (!frontier.empty()) {
      queues_[next_queue].frames.push_front(std::move(frontier.front()));
      frontier.pop_front();
      next_queue = (next_queue + 1) % queues_.size();
    }
  }

  std::optional<Frame> try_pop(int worker) {
    {
      WorkerQueue& own = queues_[static_cast<std::size_t>(worker)];
      std::lock_guard<std::mutex> lock(own.mu);
      if (!own.frames.empty()) {
        std::optional<Frame> frame(std::move(own.frames.back()));
        own.frames.pop_back();
        return frame;
      }
    }
    const int n = static_cast<int>(queues_.size());
    for (int step = 1; step < n; ++step) {
      WorkerQueue& victim = queues_[static_cast<std::size_t>((worker + step) % n)];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.frames.empty()) {
        std::optional<Frame> frame(std::move(victim.frames.front()));
        victim.frames.pop_front();
        return frame;
      }
    }
    return std::nullopt;
  }

  /// Expands frames from a private LIFO stack, refilled from the worker's
  /// deque or by stealing when it runs dry. The stack is shared only while
  /// another worker sleeps: then its older (shallower) half moves to the
  /// locked deque, where thieves take the oldest first.
  ///
  /// pending_ counts the frames in the deques plus the busy workers (those
  /// with a frame on their stack or in hand), so it reaches 0 only when the
  /// search has drained. Expanding a frame never changes it: the children
  /// stay on the busy worker's stack. It changes when a share moves frames
  /// into a deque (before they are visible there), when a busy worker whose
  /// stack ran dry takes a frame from a deque (the frame's count goes, the
  /// worker's stays), and when a busy worker goes idle. An idle worker that
  /// takes a frame turns the frame's count into its own and writes nothing.
  void worker_loop(int worker) {
    WorkerStats& ws = stats_[static_cast<std::size_t>(worker)];
    WorkerQueue& own = queues_[static_cast<std::size_t>(worker)];
    Scratch scratch;
    std::vector<Frame> stack;
    bool busy = false;  ///< counted in pending_
    while (!stop_.load(std::memory_order_relaxed)) {
      if (stack.empty()) {
        std::optional<Frame> frame = try_pop(worker);
        if (!frame) {
          if (busy) {
            busy = false;
            if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
              std::lock_guard<std::mutex> lock(idle_mu_);
              idle_cv_.notify_all();
              return;
            }
          }
          if (pending_.load(std::memory_order_acquire) == 0) return;
          // Nothing local, nothing to steal: sleep until a producer shares
          // or the search drains. The timeout bounds termination latency
          // when a notify races the wait.
          std::unique_lock<std::mutex> lock(idle_mu_);
          sleepers_.fetch_add(1, std::memory_order_relaxed);
          idle_cv_.wait_for(lock, std::chrono::microseconds(200));
          sleepers_.fetch_sub(1, std::memory_order_relaxed);
          continue;
        }
        if (busy) pending_.fetch_sub(1, std::memory_order_relaxed);
        busy = true;
        stack.push_back(std::move(*frame));
      }
      Frame frame = std::move(stack.back());
      stack.pop_back();
      // Children land in reverse choice order, so the first choice's child
      // ends on top of the stack and expansion stays depth-first preorder.
      expand_children(std::move(frame), ws, scratch, stack);
      if (stack.size() > 1 && sleepers_.load(std::memory_order_relaxed) > 0) {
        share_older_half(own, stack);
      }
    }
  }

  /// Moves the bottom half of `stack` to the worker's deque, oldest first,
  /// and wakes the sleepers to steal it.
  void share_older_half(WorkerQueue& own, std::vector<Frame>& stack) {
    const auto half = static_cast<std::ptrdiff_t>(stack.size() / 2);
    // Counted before a thief can see them: a thief that takes one and goes
    // idle must not bring the count to 0 while this worker is still busy.
    pending_.fetch_add(static_cast<std::size_t>(half), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(own.mu);
      for (auto it = stack.begin(); it != stack.begin() + half; ++it) {
        own.frames.push_back(std::move(*it));
      }
    }
    stack.erase(stack.begin(), stack.begin() + half);
    idle_cv_.notify_all();
  }

  void record_violation(const PathPtr& path, const Choice* last,
                        const std::vector<Violation>& violations) {
    std::vector<Choice> schedule = unwind(path);
    if (last != nullptr) schedule.push_back(*last);
    std::lock_guard<std::mutex> lock(ce_mu_);
    if (!counterexample_ || schedule_less(schedule, counterexample_->schedule)) {
      Counterexample ce;
      ce.schedule = std::move(schedule);
      for (const Violation& v : violations) ce.violations.push_back(v.description);
      counterexample_ = std::move(ce);
    }
    stop_.store(true, std::memory_order_release);
  }

  const ExploreOptions* options_;
  const int threads_;
  const bool expand_every_raise_;
  const int depth_limit_;  ///< max_depth, or INT_MAX when <= 0 (unbounded)
  const std::size_t publish_batch_;
  util::ShardedFingerprintSet visited_;
  std::vector<WorkerQueue> queues_;
  std::vector<WorkerStats> stats_;
  /// Distinct states counted toward max_states: the root plus every
  /// published fresh insert.
  alignas(kCacheLine) std::atomic<std::size_t> inserted_{1};
  alignas(kCacheLine) std::atomic<std::size_t> pending_{0};
  alignas(kCacheLine) std::atomic<bool> stop_{false};
  std::atomic<bool> state_capped_{false};   ///< max_states stopped the search
  std::atomic<bool> depth_cut_{false};      ///< a frame hit max_depth
  std::atomic<bool> skipped_raise_{false};  ///< see expand_raised()
  alignas(kCacheLine) std::atomic<int> sleepers_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::mutex ce_mu_;
  std::optional<Counterexample> counterexample_;
};

}  // namespace

ExploreResult explore_dfs(const Scenario& scenario, const ExploreOptions& options) {
  const int threads = effective_threads(options.threads);
  ExploreResult result;
  // One search from a fresh root; false if it has to be run again.
  const auto search = [&](bool expand_every_raise) {
    auto root = std::make_unique<Model>(make_model(scenario, options));
    root->set_record_transitions(false);
    if (!root->violations().empty()) {
      Counterexample ce;
      for (const Violation& v : root->violations()) ce.violations.push_back(v.description);
      result.counterexample = std::move(ce);
      return true;
    }
    FrontierEngine engine(options, threads, expand_every_raise);
    engine.insert_root(*root);
    engine.run(Frame{std::move(root), nullptr, 0, {}}, threads);
    if (engine.needs_rerun()) return false;
    engine.merge_into(result);
    return true;
  };
  if (!search(/*expand_every_raise=*/false)) search(/*expand_every_raise=*/true);
  return result;
}

ExploreResult explore_random(const Scenario& scenario, const ExploreOptions& options,
                             std::uint64_t seed, std::size_t runs) {
  // Safety cap well above any legal run length: every walk terminates on its
  // own (timers re-arm only across bounded retry rounds), this only guards
  // against a pathological regression looping forever.
  constexpr std::size_t kMaxWalkLength = 1'000'000;

  /// Everything one walk contributes to the result, held back until the merge
  /// so stats accumulate in run order regardless of which worker ran what.
  struct RunDelta {
    std::size_t explored = 0;
    std::array<std::size_t, Choice::kKinds> edges_by_kind{};
    int max_depth = 0;
    bool length_capped = false;
    bool completed = false;
    std::size_t outcome = 0;  ///< AdaptationOutcome index, valid iff completed
    bool violated = false;
    std::vector<Choice> schedule;        ///< valid iff violated
    std::vector<std::string> violations;  ///< valid iff violated
  };

  // Every walk starts from a copy of one root, so the walks share its
  // message table and manager memo instead of each starting cold.
  Model root = make_model(scenario, options);
  root.set_record_transitions(false);

  std::vector<RunDelta> deltas(runs);
  std::atomic<std::size_t> next{0};
  // Lowest run index with a violation: runs above it can never reach the
  // merged result (the merge stops there), so workers skip them.
  std::atomic<std::size_t> first_violation{runs};

  auto body = [&] {
    std::vector<Choice> scratch;
    for (;;) {
      const std::size_t run = next.fetch_add(1, std::memory_order_relaxed);
      if (run >= runs) return;
      if (run > first_violation.load(std::memory_order_acquire)) continue;
      RunDelta& delta = deltas[run];
      util::Rng rng(seed + run * 0x9e3779b97f4a7c15ULL);
      Model model = root;
      std::vector<Choice> path;
      bool violated = false;
      while (path.size() < kMaxWalkLength) {
        model.choices(scratch);
        if (scratch.empty()) break;
        const Choice choice = scratch[rng.next_below(scratch.size())];
        model.apply(choice);
        path.push_back(choice);
        ++delta.explored;
        ++delta.edges_by_kind[static_cast<std::size_t>(choice.kind)];
        delta.max_depth = std::max(delta.max_depth, static_cast<int>(path.size()));
        if (!model.violations().empty()) {
          violated = true;
          break;
        }
      }
      if (!violated) {
        model.choices(scratch);
        if (!scratch.empty()) {  // walk-length cap hit
          delta.length_capped = true;
          continue;
        }
        model.finalize();
        violated = !model.violations().empty();
      }
      if (violated) {
        delta.violated = true;
        delta.schedule = std::move(path);
        for (const Violation& v : model.violations()) {
          delta.violations.push_back(v.description);
        }
        std::size_t current = first_violation.load(std::memory_order_relaxed);
        while (run < current &&
               !first_violation.compare_exchange_weak(current, run,
                                                      std::memory_order_acq_rel)) {
        }
        continue;
      }
      delta.completed = true;
      delta.outcome = static_cast<std::size_t>(model.outcome()->outcome);
    }
  };

  const int threads =
      std::min<int>(effective_threads(options.threads),
                    static_cast<int>(std::max<std::size_t>(runs, 1)));
  if (threads <= 1) {
    body();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(body);
    for (std::thread& th : pool) th.join();
  }

  // Merge in run order, stopping at the first violating run — exactly the
  // sequential engine's early return, so results match for any thread count.
  ExploreResult result;
  for (std::size_t run = 0; run < runs; ++run) {
    const RunDelta& delta = deltas[run];
    result.stats.states_explored += delta.explored;
    for (std::size_t k = 0; k < Choice::kKinds; ++k) {
      result.stats.edges_by_kind[k] += delta.edges_by_kind[k];
    }
    result.stats.max_depth_reached =
        std::max(result.stats.max_depth_reached, delta.max_depth);
    if (delta.violated) {
      result.counterexample = Counterexample{delta.schedule, delta.violations};
      break;
    }
    if (delta.length_capped) {
      ++result.stats.depth_capped;
      continue;
    }
    if (delta.completed) {
      ++result.stats.runs_completed;
      ++result.stats.outcomes[std::string(
          to_string(static_cast<proto::AdaptationOutcome>(delta.outcome)))];
    }
  }
  return result;
}

}  // namespace sa::check
