// Link: the one model of a directed channel's behaviour, shared by every
// backend that simulates the link (sim::Network in virtual time,
// ThreadedTransport in real time). It owns the channel's ChannelConfig
// (validated once, at construction), its ChannelStats, the FIFO clamp and the
// time the link frees up after the last transmission, and decides what a send
// does: whether it is lost, when it arrives, and whether and when a duplicate
// follows. Backends keep only the scheduling of the arrivals it returns.
//
// The caller owns the Rng (one per transport, shared by all its channels) and
// the synchronization. Draws happen in a fixed order per send — loss, jitter,
// duplicate, copy jitter — so one seed gives the same counters on every
// backend.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "runtime/time.hpp"
#include "runtime/transport.hpp"
#include "util/rng.hpp"

namespace sa::runtime {

/// What the link does with one send.
struct LinkOutcome {
  bool accepted = false;  ///< false: lost on the link, nothing to schedule
  Time arrival = 0;
  Time copy_arrival = -1;  ///< >= 0: a duplicate arrives then, after `arrival`
};

class Link {
 public:
  explicit Link(const ChannelConfig& config = {}) : config_(checked_channel_config(config)) {}

  const ChannelConfig& config() const { return config_; }
  const ChannelStats& stats() const { return stats_; }

  /// Decides the fate of a `size_bytes` message handed to the link at `now`.
  LinkOutcome send(Time now, std::size_t size_bytes, util::Rng& rng) {
    ++stats_.sent;
    LinkOutcome out;
    if (config_.loss_probability > 0.0 && rng.next_bool(config_.loss_probability)) {
      ++stats_.dropped_loss;
      return out;
    }
    out.accepted = true;
    Time send_complete = now;
    if (config_.bytes_per_second > 0) {
      // Serialize on the link: transmission starts when the link frees up and
      // occupies it for size/bandwidth.
      const Time start = std::max(now, link_free_at_);
      send_complete = start + static_cast<Time>((static_cast<__int128>(size_bytes) * 1'000'000) /
                                                config_.bytes_per_second);
      link_free_at_ = send_complete;
    }
    out.arrival = clamped(send_complete + config_.latency + draw_jitter(rng));
    ++stats_.delivered;

    if (config_.duplicate_probability > 0.0 && rng.next_bool(config_.duplicate_probability)) {
      // The copy trails the original by up to one extra jitter window.
      out.copy_arrival =
          clamped(out.arrival + 1 + (config_.jitter > 0 ? draw_jitter(rng) : config_.latency));
      ++stats_.duplicated;
    }
    return out;
  }

 private:
  Time draw_jitter(util::Rng& rng) const {
    if (config_.jitter <= 0) return 0;
    return static_cast<Time>(rng.next_below(static_cast<std::uint64_t>(config_.jitter) + 1));
  }

  /// FIFO clamp: on an ordered channel nothing arrives before an earlier send.
  Time clamped(Time arrival) {
    if (config_.fifo && arrival < last_arrival_) arrival = last_arrival_;
    last_arrival_ = std::max(last_arrival_, arrival);
    return arrival;
  }

  ChannelConfig config_;
  ChannelStats stats_;
  Time last_arrival_ = 0;   ///< FIFO clamp
  Time link_free_at_ = 0;   ///< bandwidth serialization
};

}  // namespace sa::runtime
