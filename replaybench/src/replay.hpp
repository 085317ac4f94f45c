// Replaying a workload's stream: the serial reference, the timed rounds
// through core::ShardedGateway, and the traced serial stage budget.
//
// All timing is taken here, around calls to the program's public
// functions; nothing inside the program is instrumented.
#pragma once

#include <chrono>
#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/gateway_pool.hpp"
#include "core/security_gateway.hpp"
#include "core/security_service.hpp"
#include "simnet/corpus.hpp"
#include "simnet/roster.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace replaybench {

/// Every workload runs 2 shards: 2 workers, the classifier thread and the
/// ingest thread make 4 threads.
inline constexpr std::size_t kShards = 2;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Resident set size of this process, MiB.
[[nodiscard]] double rss_mib();

/// The (device, type, isolation level) of one identification.
struct Verdict {
  std::uint64_t mac = 0;
  std::string type;
  int level = 0;
  friend auto operator<=>(const Verdict&, const Verdict&) = default;
};
/// Sorted multiset of verdicts (a device may be identified repeatedly).
using VerdictSet = std::vector<Verdict>;
[[nodiscard]] VerdictSet verdict_set(
    const std::vector<iotsentinel::core::GatewayEvent>& events);
/// Size of the multiset symmetric difference: missing plus extra.
[[nodiscard]] std::size_t verdict_mismatches(const VerdictSet& expected,
                                             const VerdictSet& actual);

/// Configuration shared by the sharded gateway and both serial replays.
[[nodiscard]] iotsentinel::core::ShardedGatewayConfig gateway_config();

/// Trains the identifier and builds the IoT Security Service.
[[nodiscard]] std::unique_ptr<iotsentinel::core::IoTSecurityService>
train_service(const iotsentinel::sim::FingerprintCorpus& corpus);

/// One set-up as a round does it (train the identifier, build the
/// service, build the gateway), timed, then torn down. Seconds.
[[nodiscard]] double timed_setup(
    const iotsentinel::sim::FingerprintCorpus& corpus);

/// Everything a run derives from its workload and seed before timing.
struct Context {
  const WorkloadSpec* spec = nullptr;
  const iotsentinel::sim::Roster* roster = nullptr;
  const iotsentinel::sim::FingerprintCorpus* corpus = nullptr;
  Stream stream;
  /// Traced runs end workloads that have no sweeps with one departure of
  /// every device, so the departure layers are measured on every
  /// workload.
  bool final_sweep = false;
  /// FleetSim device id of each MAC.
  std::unordered_map<std::uint64_t, std::uint32_t> device_of_mac;
  /// Indices into stream.triggers of each device's captures, in order.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> triggers_of_mac;
};

/// Fills the Context's lookup tables from its stream.
void index_context(Context& ctx);

/// Verdicts of the serial core::SecurityGateway on the same input, with
/// the same departure sweeps.
[[nodiscard]] VerdictSet reference_verdicts(
    const Context& ctx, const iotsentinel::core::IoTSecurityService& service);

/// What one pass of the stream through the sharded gateway measured.
struct RoundResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double frames_per_s = 0.0;
  /// RSS growth from just before the gateway is built to after finish().
  /// Only a process's first round sees fresh allocator arenas; later
  /// rounds reuse memory the earlier ones freed.
  double rss_mib = 0.0;
  /// Trigger-to-callback time of every verdict with a trigger frame.
  std::vector<double> verdict_ms;
  /// How late the generator accepted each (sampled) frame.
  std::vector<double> late_ms;
  VerdictSet verdicts;
  std::size_t correct_types = 0;
  std::uint64_t frames_submitted = 0;
  std::uint64_t timed_frames = 0;
  iotsentinel::core::ShardedGateway::Stats stats;
  /// From registry().snapshot().
  struct Telemetry {
    std::uint64_t frames = 0;
    std::uint64_t packet_ins = 0;
    std::uint64_t rule_installs = 0;
    std::uint64_t invalidations_sent = 0;
    std::uint64_t fingerprints_scored = 0;
    std::uint64_t fast_path = 0;
    std::uint64_t cached_path = 0;
    std::uint64_t slow_path = 0;
    std::uint64_t class_cache_hits = 0;
    std::uint64_t class_cache_misses = 0;
  } telemetry;
  /// The benchmark's own counts, to cross-check telemetry against.
  std::uint64_t own_slow_path = 0;
  std::uint64_t callbacks = 0;
  /// Mean submit() time; traced rounds only.
  double submit_ns = 0.0;
  double finish_ms = 0.0;
  /// Mean expire_departed() call time (0 without sweeps).
  double expire_departed_us = 0.0;
  /// Correctness problems found after the round (0 when correct).
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  std::vector<std::string> problems;
};

struct RoundOptions {
  /// Replays the timed window closed-loop whatever the workload's loop.
  bool force_closed = false;
  /// Records spans around the gateway's public entry points.
  SpanLog* spans = nullptr;
};

/// One round: set up (train, build service and gateway), warm up, replay
/// the timed window, finish(), then check the outputs against
/// `reference` outside the timed region.
[[nodiscard]] RoundResult run_round(const Context& ctx,
                                    const VerdictSet& reference,
                                    const RoundOptions& options);

/// Per-layer budget of the traced serial replay.
struct SerialBudget {
  double wall_ns = 0.0;
  /// Self time of every layer span (sum over all frames and events).
  double covered_ns = 0.0;
  LayerTotals parse, tracker, extractor, sw_fast, sw_cached, sw_slow,
      assess, apply_rule, flush_device, mark_identified, remove_device,
      forget, idle_scan, expire_flows;
  /// Fingerprints of every completed capture, for the classifier
  /// breakdown.
  std::vector<iotsentinel::fp::Fingerprint> fingerprints;
  VerdictSet verdicts;
};

/// Replays the stream serially through the layers' public functions in
/// the order SecurityGateway::on_frame and handle_capture use them,
/// with a span around each call (frame spans sampled 1 in `sample`).
[[nodiscard]] SerialBudget traced_serial_replay(
    const Context& ctx, const iotsentinel::core::IoTSecurityService& service,
    SpanLog& spans, std::size_t sample);

/// Stage 1 and stage 2 of identification timed apart, one fingerprint
/// at a time, outside the serial replay's wall time.
struct ClassifierBreakdown {
  LayerTotals score;
  LayerTotals discriminate;
  std::size_t fingerprints = 0;
  std::size_t stage2 = 0;
};
[[nodiscard]] ClassifierBreakdown classifier_breakdown(
    const iotsentinel::core::IoTSecurityService& service,
    const std::vector<iotsentinel::fp::Fingerprint>& fingerprints,
    SpanLog& spans);

}  // namespace replaybench
