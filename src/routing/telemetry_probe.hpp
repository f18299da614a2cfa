// Cycle-loop instrumentation for the packet kernel (routing/packet_kernel.hpp).
//
// SaturationProbe is the thin adapter between an engine's cycle loop and an
// obs::TimeSeries / obs::OccupancyFrames pair.  The cost contract it exists
// to enforce:
//   * disabled (both sinks null, the default) — every hook is one
//     predictable branch on a bool the compiler keeps in a register;
//   * enabled — per-event hooks are plain integer/double accumulations, and
//     the O(links) occupancy gathers run only on sampling cycles, whose count
//     is bounded by the sample budget times log2(cycles) (the stride-doubling
//     schedule), not by the cycle count.
// Nothing here reads a clock or an RNG: the sample rows are a pure function
// of the packet stream, which is what keeps them bitwise identical across
// thread counts and checkpoint replay.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight.hpp"
#include "obs/timeseries.hpp"
#include "routing/packet_arena.hpp"
#include "util/bits.hpp"

namespace bfly::detail {

class SaturationProbe {
 public:
  SaturationProbe(obs::TimeSeries* series, obs::OccupancyFrames* frames, int n, u64 rows)
      : series_(series), frames_(frames), active_(series != nullptr), n_(n), rows_(rows) {
    if (series_ != nullptr) {
      std::vector<std::string> channels;
      channels.reserve(static_cast<std::size_t>(n) + 7);
      for (int s = 0; s < n; ++s) channels.push_back("stage" + std::to_string(s));
      channels.emplace_back(obs::kChannelInFlight);
      channels.emplace_back(obs::kChannelInjected);
      channels.emplace_back(obs::kChannelDelivered);
      channels.emplace_back(obs::kChannelDropped);
      channels.emplace_back(obs::kChannelLatencySum);
      channels.emplace_back(obs::kChannelArenaFill);
      channels.emplace_back(obs::kChannelDeadLinks);
      row_.resize(channels.size());
      series_->reset_channels(std::move(channels));
    }
  }

  /// True when any sink is attached (engines may use this to skip work that
  /// only feeds the probe).
  bool enabled() const { return series_ != nullptr || frames_ != nullptr; }

  void on_injected(u64 count) {
    if (active_) injected_ += count;
  }

  void on_delivered(u64 cycle, u64 injected_at) {
    if (active_) {
      ++delivered_;
      latency_sum_ += static_cast<double>(cycle + 1 - injected_at);
    }
  }

  void on_dropped() {
    if (active_) ++dropped_;
  }

  /// End-of-cycle sampling hook.  `in_flight` must equal the number of
  /// packets resident in the arena (the kernel maintains exactly that
  /// invariant at end of cycle).  `dead_links` is the fabric's current dead
  /// link count — constant for static fault sets, time-varying under a live
  /// fault schedule (the sampled series makes the fault epoch visible), and
  /// 0 on the pristine engine.
  void sample(u64 cycle, const PacketArena& arena, u64 in_flight, u64 dead_links) {
    if (active_ && series_->want(cycle)) {
      std::size_t c = 0;
      for (int s = 0; s < n_; ++s) {
        const u64 base = static_cast<u64>(s) * rows_ * 2;
        u64 occupancy = 0;
        for (u64 link = base; link < base + rows_ * 2; ++link) {
          occupancy += arena.size(link);
        }
        row_[c++] = static_cast<double>(occupancy);
      }
      row_[c++] = static_cast<double>(in_flight);
      row_[c++] = static_cast<double>(injected_);
      row_[c++] = static_cast<double>(delivered_);
      row_[c++] = static_cast<double>(dropped_);
      row_[c++] = latency_sum_;
      row_[c++] = arena.capacity() == 0
                      ? 0.0
                      : static_cast<double>(in_flight) / static_cast<double>(arena.capacity());
      row_[c++] = static_cast<double>(dead_links);
      series_->record(cycle, row_);
    }
    if (frames_ != nullptr && frames_->want(cycle)) {
      frame_row_.resize(static_cast<std::size_t>(arena.num_links()));
      for (u64 link = 0; link < arena.num_links(); ++link) {
        frame_row_[static_cast<std::size_t>(link)] = static_cast<double>(arena.size(link));
      }
      frames_->record(cycle, frame_row_);
    }
  }

 private:
  obs::TimeSeries* series_ = nullptr;
  obs::OccupancyFrames* frames_ = nullptr;
  bool active_ = false;
  int n_ = 0;
  u64 rows_ = 0;
  u64 injected_ = 0;
  u64 delivered_ = 0;
  u64 dropped_ = 0;
  double latency_sum_ = 0.0;
  std::vector<double> row_;
  std::vector<double> frame_row_;
};

/// The per-packet sibling of SaturationProbe: the thin adapter between an
/// engine's packet events and an obs::FlightRecorder.  Same cost contract —
/// one predictable branch per hook when no recorder is attached (the
/// default), and when recording, plain integer appends on the
/// deterministically sampled subset only.
///
/// The engines must build their PacketArena with the flight lane iff
/// enabled() (the lane carries each sampled packet's handle through
/// move_front hops); on_advance reads it via front_flight, which safely
/// returns 0 ("unsampled") on lane-less arenas.
class FlightProbe {
 public:
  explicit FlightProbe(obs::FlightRecorder* recorder)
      : recorder_((recorder != nullptr && recorder->enabled()) ? recorder : nullptr) {}

  bool enabled() const { return recorder_ != nullptr; }

  /// Every created packet (sampled or not) flows through here, in creation
  /// order — packet identity is its position in this stream.  Returns the
  /// flight handle to store in the arena's flight lane (0 = unsampled).
  u64 on_packet(u64 cycle, u64 src, u64 dst) {
    return recorder_ != nullptr ? recorder_->on_packet(cycle, src, dst) : 0;
  }

  /// The packet behind `handle` entered `link`'s FIFO during `cycle`.
  void on_push(u64 handle, u64 cycle, u64 link, obs::FlightEvent event) {
    if (recorder_ != nullptr && handle != 0) recorder_->on_hop(handle, cycle, link, event);
  }

  /// The front packet of `link` hops to `next_link` via move_front (the
  /// engines' payload-invariant fast path, which never surfaces a Packet).
  void on_advance(const PacketArena& arena, u64 link, u64 cycle, u64 next_link) {
    if (recorder_ != nullptr) {
      const u64 handle = arena.front_flight(link);
      if (handle != 0) recorder_->on_hop(handle, cycle, next_link, obs::FlightEvent::kAdvance);
    }
  }

  void on_delivered(u64 handle, u64 cycle) {
    if (recorder_ != nullptr && handle != 0) recorder_->on_delivered(handle, cycle);
  }

  void on_dropped(u64 handle, u64 cycle, u64 reason) {
    if (recorder_ != nullptr && handle != 0) recorder_->on_dropped(handle, cycle, reason);
  }

 private:
  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace bfly::detail
