// codec_swap: the live data plane. A two-lane DataPlanePump (a producer and a
// pump thread per lane) streams DES-encoded packets as fast as it can while
// lane 0 is swapped between {E1, D1} and {E2, D2} through adapt_lane every few
// milliseconds; lane 1 is never adapted. Op: one delivered packet.
#include <memory>
#include <thread>

#include "components/arena.hpp"
#include "components/filter_chain.hpp"
#include "crypto/codec_filters.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/rng.hpp"
#include "video/pump.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using sa::components::FilterChain;
using sa::components::PacketArena;
using sa::components::PacketRef;
using sa::components::VectorSink;

constexpr std::size_t kLanes = 2;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kPayload = 256;
constexpr auto kSwapInterval = std::chrono::milliseconds(5);
constexpr std::size_t kCountedSwaps = 100;  // windows counted for the sentinel

sa::video::PumpConfig pump_config(std::uint64_t seed) {
  sa::video::PumpConfig config;
  config.streams = kLanes;
  config.batch_size = kBatch;
  config.payload_bytes = kPayload;
  config.packets_per_stream = UINT64_MAX;  // stopped by the timed phase
  config.seed = seed;
  return config;
}

/// Constructs and starts a pump, returning once every lane has delivered a
/// packet: the start-up a deployment pays once.
std::unique_ptr<sa::video::DataPlanePump> start_pump(std::uint64_t seed) {
  auto pump = std::make_unique<sa::video::DataPlanePump>(pump_config(seed));
  pump->start();
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    while (pump->lane_report(lane).delivered == 0) std::this_thread::yield();
  }
  return pump;
}

struct SwapTimes {
  std::vector<double> total, park, apply, resume;
};

/// Fills `refs` with one batch of seeded random payloads, checksums stamped.
void make_batch(PacketArena& arena, sa::util::Rng& rng, std::uint64_t& sequence,
                std::vector<PacketRef>& refs) {
  refs.clear();
  for (std::size_t i = 0; i < kBatch; ++i) {
    PacketRef ref = arena.make_blank(1, sequence++, kPayload);
    for (std::size_t w = 0; w < kPayload; w += 8) {
      const std::uint64_t word = rng.next_u64();
      for (std::size_t b = 0; b < 8; ++b) {
        ref.data()[w + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
    ref.set_plaintext_checksum(sa::components::payload_checksum(ref.data(), ref.size()));
    refs.push_back(ref);
  }
}

/// Per-packet cost of each codec filter's process_span, the filter chain's
/// own overhead and the arena's allocate + recycle, on batches shaped like
/// the pump's (64 packets of 256 bytes).
void probe_filters(std::uint64_t seed, Report& report) {
  constexpr std::size_t kBatches = 400;
  sa::runtime::SimRuntime rt(seed);
  sa::util::Rng rng(seed);
  PacketArena arena(1 << 20);
  std::vector<PacketRef> in, mid, out;
  std::uint64_t sequence = 0;

  const auto e1 = sa::crypto::make_encoder_e1();
  const auto e2 = sa::crypto::make_encoder_e2();
  const auto d1 = sa::crypto::make_decoder("D1", true, false);
  const auto d2 = sa::crypto::make_decoder("D2", true, true);
  FilterChain chain(rt.clock(), "encode");
  chain.append_filter(sa::crypto::make_encoder_e1());

  double ns_e1 = 0, ns_e2 = 0, ns_d1 = 0, ns_d2 = 0, ns_chain = 0, ns_arena = 0;
  const auto timed = [](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    return us_between(t0, Clock::now()) * 1000.0;
  };
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (int variant = 0; variant < 2; ++variant) {
      arena.reset();
      make_batch(arena, rng, sequence, in);
      mid.clear();
      out.clear();
      VectorSink mid_sink(arena, mid), out_sink(arena, out);
      auto& encoder = variant == 0 ? e1 : e2;
      auto& decoder = variant == 0 ? d1 : d2;
      (variant == 0 ? ns_e1 : ns_e2) += timed([&] { encoder->process_span(in, mid_sink); });
      (variant == 0 ? ns_d1 : ns_d2) += timed([&] { decoder->process_span(mid, out_sink); });
      for (const PacketRef& ref : out) report.check(ref.intact(), "codec probe: packet not intact");
    }
    arena.reset();
    make_batch(arena, rng, sequence, in);
    mid.clear();
    VectorSink chain_sink(arena, mid);
    ns_chain += timed([&] { chain.process_batch(in, chain_sink); });

    ns_arena += timed([&] {
      for (std::size_t i = 0; i < kBatch; ++i) arena.make_blank(1, i, kPayload);
      arena.reset();
    });
  }
  const double packets = static_cast<double>(kBatches * kBatch);
  report.layers.push_back({"crypto.des64_encode_ns_per_pkt", ns_e1 / packets, "ns"});
  report.layers.push_back({"crypto.des128_encode_ns_per_pkt", ns_e2 / packets, "ns"});
  report.layers.push_back({"crypto.d1_decode_ns_per_pkt", ns_d1 / packets, "ns"});
  report.layers.push_back({"crypto.d2_decode_ns_per_pkt", ns_d2 / packets, "ns"});
  report.layers.push_back(
      {"components.chain_overhead_ns_per_pkt", (ns_chain - ns_e1) / packets, "ns"});
  report.layers.push_back({"components.arena_ns_per_batch", ns_arena / kBatches, "ns"});
}

}  // namespace

Report run_codec_swap(const RunConfig& cfg) {
  Report report;

  std::vector<double> setups;
  std::unique_ptr<sa::video::DataPlanePump> pump;
  for (int i = 0; i < cfg.setups; ++i) {
    if (pump) pump->stop_and_join();
    const auto t0 = Clock::now();
    pump = start_pump(cfg.seed + static_cast<std::uint64_t>(i));
    setups.push_back(s_between(t0, Clock::now()));
  }

  const auto to_v2 = [](FilterChain& encode, FilterChain& decode) {
    decode.replace_filter("D1", sa::crypto::make_decoder("D2", true, true));
    encode.replace_filter("E1", sa::crypto::make_encoder_e2());
  };
  const auto to_v1 = [](FilterChain& encode, FilterChain& decode) {
    decode.replace_filter("D2", sa::crypto::make_decoder("D1", true, false));
    encode.replace_filter("E2", sa::crypto::make_encoder_e1());
  };

  // Every adaptation must run on blocked chains; the callback checks it.
  bool on_v2 = false;
  std::uint64_t unblocked_applies = 0;
  const auto swap = [&](Clock::time_point* t1, Clock::time_point* t2) {
    pump->adapt_lane(0, [&](FilterChain& encode, FilterChain& decode) {
      if (t1) *t1 = Clock::now();
      if (!encode.blocked() || !decode.blocked()) ++unblocked_applies;
      on_v2 ? to_v1(encode, decode) : to_v2(encode, decode);
      if (t2) *t2 = Clock::now();
    });
    on_v2 = !on_v2;
  };

  SwapTimes swaps;
  bool window_stuck = false;
  std::uint64_t counted_windows = 0;  // lane 0 windows after kCountedSwaps swaps
  const auto begin = Clock::now();
  std::uint64_t delivered_before = 0;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    delivered_before += pump->lane_report(lane).delivered;
  }
  const auto deadline = after(begin, cfg.seconds);
  auto next_swap = begin + kSwapInterval;
  while (Clock::now() < deadline) {
    std::this_thread::sleep_until(std::min(next_swap, deadline));
    next_swap += kSwapInterval;
    if (Clock::now() >= deadline) break;
    Clock::time_point t1, t2;
    const auto t0 = Clock::now();
    swap(cfg.traced ? &t1 : nullptr, cfg.traced ? &t2 : nullptr);
    const auto t3 = Clock::now();
    swaps.total.push_back(us_between(t0, t3));
    if (cfg.traced) {
      swaps.park.push_back(us_between(t0, t1));
      swaps.apply.push_back(us_between(t1, t2));
      swaps.resume.push_back(us_between(t2, t3));
    }
    // Closed loop: the next swap waits until the lane has left this window.
    // adapt_lane returns before the pump thread wakes, and a call arriving in
    // that gap shares the still-open window (see README.md). Because of this
    // wait, the gate windows == swaps cannot catch that race; it catches a
    // call that opens no window (the wait times out) or more than one.
    const auto limit = after(Clock::now(), 1.0);
    while (pump->lane_report(0).blocked_windows < swaps.total.size() && !window_stuck) {
      window_stuck = Clock::now() > limit;
      std::this_thread::yield();
    }
    if (swaps.total.size() == kCountedSwaps) counted_windows = pump->lane_report(0).blocked_windows;
  }
  const sa::video::LaneReport timed_lane0 = pump->lane_report(0);
  const std::uint64_t timed_windows = timed_lane0.blocked_windows;

  // Traced runs also issue a burst of back-to-back swaps and count how many
  // shared a window with the swap before them.
  const std::size_t burst = cfg.traced ? 100 : 0;
  for (std::size_t i = 0; i < burst; ++i) swap(nullptr, nullptr);
  pump->stop_and_join();
  const double elapsed = s_between(begin, Clock::now());

  const sa::video::LaneReport total = pump->total_report();
  const sa::video::LaneReport lane0 = pump->lane_report(0);
  const sa::video::LaneReport lane1 = pump->lane_report(1);
  report.attempted = total.generated;
  report.failed = total.generated - std::min(total.generated, total.intact);
  report.check(total.delivered == total.generated, "codec_swap: delivered != generated");
  report.check(total.intact == total.delivered, "codec_swap: intact != delivered");
  report.check(!window_stuck && timed_windows == swaps.total.size(),
               "codec_swap: lane 0 windows != swaps issued");
  report.check(unblocked_applies == 0, "codec_swap: a swap ran on an unblocked chain");
  report.check(lane1.blocked_windows == 0, "codec_swap: uninvolved lane 1 was blocked");
  report.check(!swaps.total.empty(), "codec_swap: no swap issued");

  const double ops_per_s = static_cast<double>(total.delivered - delivered_before) / elapsed;
  // LaneReport exposes only a fixed p99 (index floor(0.99 n)) of the worst
  // lane's batch delays; that lane's sample count says how many lie beyond.
  const std::uint64_t tail_n =
      (lane0.p99_delay_us >= lane1.p99_delay_us ? lane0 : lane1).batches;
  const std::uint64_t tail_index = std::min<std::uint64_t>(
      tail_n - 1, static_cast<std::uint64_t>(0.99 * static_cast<double>(tail_n)));
  report.notes.push_back("codec_swap: " + std::to_string(total.delivered) + " packets delivered, " +
                         std::to_string(swaps.total.size()) + " swaps in " +
                         std::to_string(timed_windows) + " windows; latency tail " +
                         std::to_string(total.p99_delay_us) + " us at p99 of n=" +
                         std::to_string(tail_n) + " batch delays of the worst lane (" +
                         std::to_string(tail_n - 1 - tail_index) +
                         " beyond) [fixed by LaneReport]");
  report.end_to_end = {
      {"setup_s", median(setups), "s"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"latency_p50_us", total.p50_delay_us, "us"},
      {"blocked_p50_us", median(swaps.total), "us"},
      {"peak_rss_mb", peak_rss_mb_with({}), "MB"},
  };

  if (cfg.traced) {
    const double park = median(swaps.park);
    const double apply = median(swaps.apply);
    const double resume = median(swaps.resume);
    report.layers.push_back({"video.park_wait_us", park, "us"});
    report.layers.push_back({"video.swap_apply_us", apply, "us"});
    report.layers.push_back({"video.resume_us", resume, "us"});
    report.layers.push_back(
        {"video.adapt_residual_us", median(swaps.total) - park - apply - resume, "us"});
    const double windows = static_cast<double>(timed_windows);
    report.layers.push_back({"video.blocked_us_per_window",
                             windows == 0 ? 0 : timed_lane0.blocked_us / windows, "us"});
    report.layers.push_back({"video.uninvolved_delay_p99_us", lane1.p99_delay_us, "us"});
    report.layers.push_back(
        {"video.blocked_windows", static_cast<double>(counted_windows), "count"});
    const std::uint64_t burst_windows = lane0.blocked_windows - timed_windows;
    report.layers.push_back(
        {"video.coalesced_burst_swaps", static_cast<double>(burst - burst_windows), "count"});
    probe_filters(cfg.seed, report);
  }
  return report;
}

}  // namespace pb
