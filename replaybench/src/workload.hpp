// Workload definitions and the in-memory replay stream.
//
// Every workload's frames come from sim::FleetSim, seeded from the command
// line, and are materialised once into one contiguous arena before any
// timing starts. The gateway later borrows the bytes through the zero-copy
// ShardedGateway::submit, so the timed region measures the gateway, not
// the traffic generator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "net/mac_address.hpp"
#include "simnet/roster.hpp"

namespace replaybench {

enum class Loop { kClosed, kOpen };

/// One benchmark workload. BENCHMARK.json records why each exists;
/// workload.cpp sizes them for a 4-core machine.
struct WorkloadSpec {
  std::string_view name;
  std::size_t devices = 0;
  /// Initial joins are spread uniformly over this window.
  std::uint64_t join_window_us = 0;
  /// FleetSim horizon: no frame is generated past it.
  std::uint64_t sim_end_us = 0;
  Loop loop = Loop::kClosed;
  /// Open loop only: the fixed offered frame rate.
  double offered_fps = 0.0;
  /// Departure sweep cadence in simulated time; 0 disables sweeps.
  std::uint64_t sweep_every_us = 0;
  /// A sweep forgets devices silent for this long.
  std::uint64_t depart_idle_us = 0;
  /// > 0 makes the stream "warm-up + timed window": the frames after the
  /// last setup capture completes are replayed this many times, each
  /// copy shifted forward in time, so the timed region holds only
  /// standby cycles of an already identified fleet.
  std::size_t standby_repeats = 0;
  /// Onboarding: cut the stream at the frame completing the last setup
  /// capture.
  bool end_at_last_capture = false;
};

/// nullptr when `name` is not one of BENCHMARK.json's workloads.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Source MAC of a raw Ethernet frame of at least 12 bytes, as the
/// gateway reads it to route the frame.
[[nodiscard]] iotsentinel::net::MacAddress frame_src_mac(
    std::span<const std::uint8_t> frame);

/// One frame of the replay: bytes live in Stream::arena.
struct Frame {
  std::uint64_t ts_us = 0;
  std::uint64_t offset = 0;
  std::uint32_t size = 0;
  /// FleetSim device id (ground truth for the accuracy metric).
  std::uint32_t device = 0;
};

/// A departure sweep issued right before frame `before`.
struct Sweep {
  std::size_t before = 0;
  std::uint64_t now_us = 0;
};

/// A frame whose processing completes a device's setup capture on the
/// device's shard (the capture's verdict is due from then on).
struct Trigger {
  std::size_t frame = 0;
  iotsentinel::net::MacAddress mac;
};

struct Stream {
  std::vector<std::uint8_t> arena;
  /// Replay order; timestamps never decrease.
  std::vector<Frame> frames;
  std::vector<Sweep> sweeps;
  /// Frames before this index are an untimed warm-up.
  std::size_t timed_begin = 0;
  std::uint64_t depart_idle_us = 0;
  /// Setup-capture completions found by `find_triggers`, in frame order.
  std::vector<Trigger> triggers;

  [[nodiscard]] std::span<const std::uint8_t> bytes(const Frame& f) const {
    return {arena.data() + f.offset, f.size};
  }
};

/// Maps a device to its gateway shard (ShardedGateway::shard_of).
using Router = std::function<std::size_t(const iotsentinel::net::MacAddress&)>;

/// Runs one SetupCaptureExtractor (default configuration, as the gateway
/// uses) and DeviceTracker per shard over each shard's sub-stream, with
/// the stream's departure sweeps, as the sharded gateway's workers do, and
/// returns the frame at which each capture completes. Captures still open
/// at the end of the stream (the gateway completes those in finish()) have
/// no trigger.
[[nodiscard]] std::vector<Trigger> find_triggers(const Stream& stream,
                                                 const Router& route,
                                                 std::size_t num_shards);

/// Builds `spec`'s stream from FleetSim with `seed`, and fills its
/// triggers.
[[nodiscard]] Stream build_stream(const WorkloadSpec& spec,
                                  const iotsentinel::sim::Roster& roster,
                                  std::uint64_t seed, const Router& route,
                                  std::size_t num_shards);

/// bench_fleet's stream_hash over the replay order: per frame,
/// mix64(h ^ timestamp) then mix64(h ^ crc32c(bytes)).
[[nodiscard]] std::uint64_t input_digest(const Stream& stream);

}  // namespace replaybench
