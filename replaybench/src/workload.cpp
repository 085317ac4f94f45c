#include "workload.hpp"

#include <array>
#include <memory>

#include "core/device_tracker.hpp"
#include "core/security_gateway.hpp"
#include "fingerprint/extractor.hpp"
#include "net/crc32.hpp"
#include "net/hash_mix.hpp"
#include "net/parser.hpp"
#include "simnet/fleet_sim.hpp"

namespace replaybench {

namespace core = iotsentinel::core;
namespace fp = iotsentinel::fp;
namespace net = iotsentinel::net;
namespace sim = iotsentinel::sim;

namespace {

constexpr std::uint64_t kSecondUs = 1'000'000;

constexpr std::array<WorkloadSpec, 3> kWorkloads{{
    {.name = "standby",
     .devices = 20'000,
     .join_window_us = 60 * kSecondUs,
     // FleetSim devices depart after their standby cycles and rejoin no
     // sooner than 120 s later, so a 120 s horizon holds no rejoin.
     .sim_end_us = 120 * kSecondUs,
     .loop = Loop::kClosed,
     .standby_repeats = 96},
    {.name = "onboarding",
     .devices = 20'000,
     .join_window_us = 120 * kSecondUs,
     .sim_end_us = 200 * kSecondUs,
     .loop = Loop::kOpen,
     .offered_fps = 100'000.0,
     .end_at_last_capture = true},
    {.name = "churn",
     .devices = 3'000,
     .join_window_us = 600 * kSecondUs,
     .sim_end_us = 3 * 3600 * kSecondUs,
     .loop = Loop::kClosed,
     .sweep_every_us = 60 * kSecondUs,
     .depart_idle_us = 150 * kSecondUs},
}};

}  // namespace

net::MacAddress frame_src_mac(std::span<const std::uint8_t> frame) {
  return net::MacAddress(
      {frame[6], frame[7], frame[8], frame[9], frame[10], frame[11]});
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<Trigger> find_triggers(const Stream& stream, const Router& route,
                                   std::size_t num_shards) {
  struct ShardState {
    fp::SetupCaptureExtractor extractor;
    core::DeviceTracker tracker;
  };
  std::vector<Trigger> out;
  std::size_t current = 0;
  std::vector<std::unique_ptr<ShardState>> shards;
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards.push_back(std::make_unique<ShardState>());
    shards.back()->extractor.on_capture_complete(
        [&out, &current](const fp::DeviceCapture& c) {
          out.push_back({current, c.mac});
        });
  }
  // The tracker only decides who departs; without sweeps it is dead work.
  const bool track = !stream.sweeps.empty();
  std::vector<net::MacAddress> departed;
  std::size_t next_sweep = 0;
  for (std::size_t i = 0; i < stream.frames.size(); ++i) {
    for (; next_sweep < stream.sweeps.size() &&
           stream.sweeps[next_sweep].before == i;
         ++next_sweep) {
      for (auto& shard : shards) {
        shard->tracker.idle_devices_into(stream.sweeps[next_sweep].now_us,
                                         stream.depart_idle_us, departed);
        for (const net::MacAddress& mac : departed) {
          shard->extractor.forget(mac);
          shard->tracker.forget(mac);
        }
      }
    }
    const Frame& frame = stream.frames[i];
    const std::span<const std::uint8_t> bytes = stream.bytes(frame);
    if (core::is_malformed_frame(bytes)) continue;
    current = i;
    ShardState& shard = *shards[route(frame_src_mac(bytes))];
    const net::ParsedPacket pkt = net::parse_ethernet_frame(bytes, frame.ts_us);
    if (track) shard.tracker.observe(pkt, bytes);
    shard.extractor.observe(pkt);
  }
  return out;
}

Stream build_stream(const WorkloadSpec& spec, const sim::Roster& roster,
                    std::uint64_t seed, const Router& route,
                    std::size_t num_shards) {
  sim::FleetConfig config;
  config.seed = seed;
  config.sim_end_us = spec.sim_end_us;
  config.join_window_us = spec.join_window_us;
  sim::FleetSim fleet(roster, spec.devices, config);

  Stream s;
  s.depart_idle_us = spec.depart_idle_us;
  std::uint64_t next_sweep = spec.sweep_every_us;
  while (auto event = fleet.next()) {
    const std::uint64_t ts = event->frame.timestamp_us;
    for (; spec.sweep_every_us > 0 && ts >= next_sweep;
         next_sweep += spec.sweep_every_us) {
      s.sweeps.push_back({s.frames.size(), next_sweep});
    }
    const net::Bytes& bytes = event->frame.frame;
    s.frames.push_back({ts, s.arena.size(),
                        static_cast<std::uint32_t>(bytes.size()),
                        event->device_id});
    s.arena.insert(s.arena.end(), bytes.begin(), bytes.end());
  }
  s.triggers = find_triggers(s, route, num_shards);
  const std::size_t after_last_capture =
      s.triggers.empty() ? 0 : s.triggers.back().frame + 1;

  if (spec.end_at_last_capture) s.frames.resize(after_last_capture);

  if (spec.standby_repeats > 0 && after_last_capture < s.frames.size()) {
    // Every device is identified once the warm-up ends; the rest of the
    // horizon is standby cycles, replayed back to back with timestamps
    // shifted by the window length plus one mean inter-frame gap.
    s.timed_begin = after_last_capture;
    const std::vector<Frame> window(s.frames.begin() + s.timed_begin,
                                    s.frames.end());
    const std::uint64_t length = window.back().ts_us - window.front().ts_us;
    const std::uint64_t shift =
        length + length / std::max<std::size_t>(window.size() - 1, 1);
    s.frames.resize(s.timed_begin);
    s.frames.reserve(s.timed_begin + window.size() * spec.standby_repeats);
    for (std::size_t r = 0; r < spec.standby_repeats; ++r) {
      for (Frame f : window) {
        f.ts_us += r * shift;
        s.frames.push_back(f);
      }
    }
  }
  return s;
}

std::uint64_t input_digest(const Stream& stream) {
  std::uint64_t h = 0;
  for (const Frame& f : stream.frames) {
    h = net::mix64(h ^ f.ts_us);
    h = net::mix64(h ^ net::crc32c(stream.bytes(f)));
  }
  return h;
}

}  // namespace replaybench
