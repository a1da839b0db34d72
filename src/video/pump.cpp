#include "video/pump.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/codec_filters.hpp"
#include "util/rng.hpp"

namespace sa::video {

namespace {

/// The batched path never schedules clock events (process_batch is
/// synchronous and quiescence fires inline), so pump lanes run their chains
/// against a null clock rather than dragging in a simulator or timer wheel.
class NullClock final : public runtime::Clock {
 public:
  runtime::Time now() const override { return 0; }
  runtime::TimerId schedule_at(runtime::Time, std::function<void()>) override { return 0; }
  runtime::TimerId schedule_after(runtime::Time, std::function<void()>) override { return 0; }
  bool cancel(runtime::TimerId) override { return false; }
};

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double percentile(std::vector<double> sorted_or_not, double p) {
  if (sorted_or_not.empty()) return 0;
  std::sort(sorted_or_not.begin(), sorted_or_not.end());
  const std::size_t idx = std::min(
      sorted_or_not.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_or_not.size())));
  return sorted_or_not[idx];
}

}  // namespace

struct DataPlanePump::Lane {
  explicit Lane(std::size_t index_, const PumpConfig& config)
      : index(index_),
        encode(clock, "pump-encode-" + std::to_string(index_)),
        decode(clock, "pump-decode-" + std::to_string(index_)),
        slots(config.ring_slots) {}

  std::size_t index;
  NullClock clock;
  components::FilterChain encode;
  components::FilterChain decode;

  // SPSC ring: producer advances `produced`, pump thread advances `consumed`.
  std::vector<Slot> slots;
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> producer_done{false};

  // Adaptation handshake (cold path).
  std::atomic<bool> adapt_requested{false};
  std::mutex adapt_mutex;  ///< serializes adapt_lane callers: one window each
  std::mutex mutex;
  std::condition_variable cv;
  bool parked = false;
  bool resume_requested = false;
  bool pump_exited = false;
  std::uint64_t windows_closed = 0;  ///< bumped once both chains have resumed

  // Counters (written by the pump thread, read by reporters).
  std::atomic<std::uint64_t> generated{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> intact{0};
  std::atomic<std::uint64_t> corrupted{0};
  std::atomic<std::uint64_t> undecodable{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> blocked_windows{0};
  std::atomic<std::uint64_t> blocked_ns{0};

  // Pump-thread-private; read only after join.
  std::vector<double> batch_delays_us;
  std::vector<components::PacketRef> scratch_mid;
  std::vector<components::PacketRef> scratch_out;

  std::chrono::steady_clock::time_point started_at;
  std::chrono::steady_clock::time_point finished_at;

  std::thread producer_thread;
  std::thread pump_thread;
};

DataPlanePump::DataPlanePump(PumpConfig config) : config_(config) {
  if (config_.streams == 0) throw std::invalid_argument("pump: streams must be > 0");
  if (config_.batch_size == 0) throw std::invalid_argument("pump: batch_size must be > 0");
  if (config_.ring_slots < 2) throw std::invalid_argument("pump: ring_slots must be >= 2");
}

DataPlanePump::~DataPlanePump() { stop_and_join(); }

void DataPlanePump::start(ChainBuilder builder) {
  if (running_) throw std::logic_error("pump already started");
  stop_requested_ = false;
  lanes_.clear();
  for (std::size_t i = 0; i < config_.streams; ++i) {
    lanes_.push_back(std::make_unique<Lane>(i, config_));
    Lane& lane = *lanes_.back();
    if (builder) {
      builder(i, lane.clock, lane.encode, lane.decode);
    } else {
      // Case-study default: DES-64 encode on the way out, decode on the way in.
      lane.encode.append_filter(crypto::make_encoder_e1());
      lane.decode.append_filter(crypto::make_decoder("D1", true, false));
    }
  }
  for (auto& lane : lanes_) {
    lane->started_at = std::chrono::steady_clock::now();
    lane->pump_thread = std::thread([this, &lane = *lane] { pump_loop(lane); });
    lane->producer_thread = std::thread([this, &lane = *lane] { producer_loop(lane); });
  }
  running_ = true;
}

void DataPlanePump::join_all() {
  for (auto& lane : lanes_) {
    if (lane->producer_thread.joinable()) lane->producer_thread.join();
    if (lane->pump_thread.joinable()) lane->pump_thread.join();
  }
  running_ = false;
}

void DataPlanePump::stop_and_join() {
  if (!running_) return;
  stop_requested_.store(true, std::memory_order_release);
  join_all();
}

void DataPlanePump::run_to_completion() {
  if (!running_) return;
  join_all();
}

void DataPlanePump::producer_loop(Lane& lane) {
  util::Rng rng(config_.seed * 0x9e3779b97f4a7c15ULL + lane.index + 1);
  const std::size_t payload_words = (config_.payload_bytes + 7) / 8;
  std::uint64_t sequence = 0;

  using clock = std::chrono::steady_clock;
  const bool paced = config_.producer_pps > 0;
  const auto batch_interval =
      paced ? std::chrono::duration_cast<clock::duration>(std::chrono::duration<double>(
                  static_cast<double>(config_.batch_size) / config_.producer_pps))
            : clock::duration::zero();
  auto next_deadline = clock::now();

  while (!stop_requested_.load(std::memory_order_acquire) &&
         sequence < config_.packets_per_stream) {
    // Wait for a free slot (the ring is full when produced - consumed == slots).
    const std::uint64_t produced = lane.produced.load(std::memory_order_relaxed);
    if (produced - lane.consumed.load(std::memory_order_acquire) >= lane.slots.size()) {
      std::this_thread::yield();
      continue;
    }

    Slot& slot = lane.slots[produced % lane.slots.size()];
    slot.refs.clear();
    const std::size_t batch =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            config_.batch_size, config_.packets_per_stream - sequence));
    for (std::size_t i = 0; i < batch; ++i) {
      // Generate the payload directly in the arena: one pass, no staging
      // buffer, checksum stamped in place.
      components::PacketRef ref =
          slot.arena.make_blank(lane.index + 1, sequence++, config_.payload_bytes);
      std::uint8_t* data = ref.data();
      for (std::size_t w = 0; w < payload_words; ++w) {
        std::uint64_t word = rng.next_u64();
        const std::size_t offset = w * 8;
        const std::size_t take = std::min<std::size_t>(8, config_.payload_bytes - offset);
        for (std::size_t b = 0; b < take; ++b) {
          data[offset + b] = static_cast<std::uint8_t>(word >> (8 * b));
        }
      }
      ref.set_plaintext_checksum(components::payload_checksum(ref.data(), ref.size()));
      slot.refs.push_back(ref);
    }
    lane.generated.fetch_add(batch, std::memory_order_relaxed);
    slot.produced_at = clock::now();
    lane.produced.store(produced + 1, std::memory_order_release);

    if (paced) {
      next_deadline += batch_interval;
      std::this_thread::sleep_until(next_deadline);
    }
  }
  lane.producer_done.store(true, std::memory_order_release);
}

void DataPlanePump::pump_loop(Lane& lane) {
  while (true) {
    if (lane.adapt_requested.load(std::memory_order_acquire)) park_lane(lane);

    const std::uint64_t consumed = lane.consumed.load(std::memory_order_relaxed);
    if (consumed == lane.produced.load(std::memory_order_acquire)) {
      if (lane.producer_done.load(std::memory_order_acquire) &&
          consumed == lane.produced.load(std::memory_order_acquire)) {
        break;
      }
      std::this_thread::yield();
      continue;
    }

    Slot& slot = lane.slots[consumed % lane.slots.size()];
    process_slot(lane, slot);
    // reset() before release so the producer reuses a clean arena.
    slot.arena.reset();
    lane.consumed.store(consumed + 1, std::memory_order_release);
  }

  lane.finished_at = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(lane.mutex);
  lane.pump_exited = true;
  lane.cv.notify_all();
}

void DataPlanePump::process_slot(Lane& lane, Slot& slot) {
  // Encode chain, then decode chain, all within the slot's arena: transformed
  // payloads land in the same arena the producer filled, and everything is
  // recycled together once the batch has been verified.
  lane.scratch_mid.clear();
  components::VectorSink mid(slot.arena, lane.scratch_mid);
  lane.encode.process_batch(slot.refs, mid);

  lane.scratch_out.clear();
  components::VectorSink out(slot.arena, lane.scratch_out);
  lane.decode.process_batch(lane.scratch_mid, out);

  std::uint64_t intact = 0, corrupted = 0, undecodable = 0;
  for (const components::PacketRef& ref : lane.scratch_out) {
    if (!ref.tags().empty()) {
      ++undecodable;
    } else if (ref.intact()) {
      ++intact;
    } else {
      ++corrupted;
    }
  }
  lane.delivered.fetch_add(lane.scratch_out.size(), std::memory_order_relaxed);
  lane.intact.fetch_add(intact, std::memory_order_relaxed);
  lane.corrupted.fetch_add(corrupted, std::memory_order_relaxed);
  lane.undecodable.fetch_add(undecodable, std::memory_order_relaxed);
  lane.batches.fetch_add(1, std::memory_order_relaxed);
  lane.batch_delays_us.push_back(
      elapsed_us(slot.produced_at, std::chrono::steady_clock::now()));
}

void DataPlanePump::park_lane(Lane& lane) {
  const auto blocked_from = std::chrono::steady_clock::now();
  // Drive both chains through the ordinary §5.2 protocol. Between batches the
  // chains are idle, so quiescence fires inline and they block immediately.
  lane.encode.request_quiescence([] {});
  lane.decode.request_quiescence([] {});

  std::unique_lock<std::mutex> lock(lane.mutex);
  lane.parked = true;
  lane.cv.notify_all();
  lane.cv.wait(lock, [&] { return lane.resume_requested; });
  lane.resume_requested = false;
  lane.parked = false;
  lane.adapt_requested.store(false, std::memory_order_release);
  lock.unlock();

  lane.encode.resume();
  lane.decode.resume();
  const auto blocked_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - blocked_from)
                              .count();
  lane.blocked_windows.fetch_add(1, std::memory_order_relaxed);
  lane.blocked_ns.fetch_add(static_cast<std::uint64_t>(blocked_ns), std::memory_order_relaxed);

  lock.lock();
  ++lane.windows_closed;
  lane.cv.notify_all();
}

void DataPlanePump::adapt_lane(
    std::size_t lane_index,
    const std::function<void(components::FilterChain&, components::FilterChain&)>& adapt) {
  if (lane_index >= lanes_.size()) throw std::out_of_range("adapt_lane: no such lane");
  Lane& lane = *lanes_[lane_index];
  const std::lock_guard<std::mutex> serial(lane.adapt_mutex);
  std::unique_lock<std::mutex> lock(lane.mutex);
  if (lane.pump_exited) {
    // Pump finished; chains are idle — adapt directly.
    adapt(lane.encode, lane.decode);
    return;
  }
  lane.adapt_requested.store(true, std::memory_order_release);
  lane.cv.wait(lock, [&] { return lane.parked || lane.pump_exited; });
  adapt(lane.encode, lane.decode);
  if (lane.parked) {
    lane.resume_requested = true;
    lane.cv.notify_all();
    // Return only once the window is closed (both chains resumed and the
    // window counted), so the next call cannot join this one.
    const std::uint64_t window = lane.windows_closed;
    lane.cv.wait(lock, [&] { return lane.windows_closed != window || lane.pump_exited; });
  }
}

LaneReport DataPlanePump::lane_report(std::size_t lane_index) const {
  if (lane_index >= lanes_.size()) throw std::out_of_range("lane_report: no such lane");
  const Lane& lane = *lanes_[lane_index];
  LaneReport report;
  report.generated = lane.generated.load(std::memory_order_relaxed);
  report.delivered = lane.delivered.load(std::memory_order_relaxed);
  report.intact = lane.intact.load(std::memory_order_relaxed);
  report.corrupted = lane.corrupted.load(std::memory_order_relaxed);
  report.undecodable = lane.undecodable.load(std::memory_order_relaxed);
  report.batches = lane.batches.load(std::memory_order_relaxed);
  report.blocked_windows = lane.blocked_windows.load(std::memory_order_relaxed);
  report.blocked_us =
      static_cast<double>(lane.blocked_ns.load(std::memory_order_relaxed)) / 1000.0;
  // Delay samples are pump-thread-private: only read them once the thread has
  // been joined (mid-run reports get counters but no percentiles).
  const bool joined = !lane.pump_thread.joinable();
  const auto end = joined ? lane.finished_at : std::chrono::steady_clock::now();
  report.elapsed_s =
      std::chrono::duration<double>(end - lane.started_at).count();
  if (report.elapsed_s > 0) {
    report.pps = static_cast<double>(report.delivered) / report.elapsed_s;
  }
  if (joined) {
    report.p50_delay_us = percentile(lane.batch_delays_us, 0.50);
    report.p99_delay_us = percentile(lane.batch_delays_us, 0.99);
    if (!lane.batch_delays_us.empty()) {
      report.max_delay_us =
          *std::max_element(lane.batch_delays_us.begin(), lane.batch_delays_us.end());
    }
  }
  return report;
}

LaneReport DataPlanePump::total_report() const {
  LaneReport total;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const LaneReport lane = lane_report(i);
    total.generated += lane.generated;
    total.delivered += lane.delivered;
    total.intact += lane.intact;
    total.corrupted += lane.corrupted;
    total.undecodable += lane.undecodable;
    total.batches += lane.batches;
    total.blocked_windows += lane.blocked_windows;
    total.blocked_us += lane.blocked_us;
    total.elapsed_s = std::max(total.elapsed_s, lane.elapsed_s);
    total.p50_delay_us = std::max(total.p50_delay_us, lane.p50_delay_us);
    total.p99_delay_us = std::max(total.p99_delay_us, lane.p99_delay_us);
    total.max_delay_us = std::max(total.max_delay_us, lane.max_delay_us);
  }
  if (total.elapsed_s > 0) {
    total.pps = static_cast<double>(total.delivered) / total.elapsed_s;
  }
  return total;
}

}  // namespace sa::video
