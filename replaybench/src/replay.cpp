#include "replay.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <string>
#include <thread>

#include "core/vulnerability_db.hpp"
#include "net/parser.hpp"
#include "sdn/switch_cache.hpp"
#include "simnet/fleet_sim.hpp"
#include "telemetry/registry.hpp"

namespace replaybench {

namespace core = iotsentinel::core;
namespace fp = iotsentinel::fp;
namespace net = iotsentinel::net;
namespace sdn = iotsentinel::sdn;
namespace sim = iotsentinel::sim;
namespace telemetry = iotsentinel::telemetry;

namespace {

/// Frames between idle-flow expiry sweeps, as in the gateway's workers.
constexpr std::uint64_t kExpiryStride = 1024;
/// Closed loop: time one submit in this many (the timer would otherwise
/// be a visible share of the ingest thread's per-frame work).
constexpr std::size_t kClosedLoopSample = 16;
/// Traced gateway rounds keep one submit span in this many.
constexpr std::size_t kSubmitSpanSample = 256;
/// The closing departure of traced runs: every device silent this long
/// at the end of the stream departs.
constexpr std::uint64_t kFinalIdleUs = 1'000'000;
constexpr std::int64_t kWarmupTimeoutNs = 120'000'000'000;

double to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::uint64_t final_sweep_now(const Stream& s) {
  return s.frames.back().ts_us + 2 * kFinalIdleUs;
}

std::uint64_t scalar(const telemetry::Snapshot& snap, std::string_view name) {
  for (const auto& s : snap.scalars) {
    if (s.name == name) return s.value;
  }
  return 0;
}

}  // namespace

double rss_mib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int read = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

VerdictSet verdict_set(const std::vector<core::GatewayEvent>& events) {
  VerdictSet out;
  out.reserve(events.size());
  for (const core::GatewayEvent& e : events) {
    out.push_back({e.device.to_u64(), e.device_type, static_cast<int>(e.level)});
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t verdict_mismatches(const VerdictSet& expected,
                               const VerdictSet& actual) {
  VerdictSet diff;
  std::set_symmetric_difference(expected.begin(), expected.end(),
                                actual.begin(), actual.end(),
                                std::back_inserter(diff));
  return diff.size();
}

core::ShardedGatewayConfig gateway_config() {
  core::ShardedGatewayConfig config;
  config.num_shards = kShards;
  // FleetSim connections are sub-second (each standby occurrence draws a
  // fresh ephemeral port). bench_fleet's 5 s idle timeout keeps the flow
  // tables proportional to live connections instead of a minute of dead
  // ones.
  config.controller.flow_idle_timeout_us = 5'000'000;
  return config;
}

std::unique_ptr<core::IoTSecurityService> train_service(
    const sim::FingerprintCorpus& corpus) {
  core::IdentifierConfig config;
  config.bank.accept_threshold = core::kPaperCalibratedAcceptThreshold;
  core::DeviceIdentifier identifier(config);
  identifier.train(corpus.type_names, corpus.by_type);
  return std::make_unique<core::IoTSecurityService>(
      std::move(identifier), core::VulnerabilityDb::with_sample_data());
}

double timed_setup(const sim::FingerprintCorpus& corpus) {
  const std::int64_t start = now_ns();
  const auto service = train_service(corpus);
  const core::ShardedGateway gw(*service, gateway_config());
  return static_cast<double>(now_ns() - start) / 1e9;
}

void index_context(Context& ctx) {
  const Stream& s = ctx.stream;
  for (const Frame& f : s.frames) {
    ctx.device_of_mac.try_emplace(frame_src_mac(s.bytes(f)).to_u64(), f.device);
  }
  for (std::size_t i = 0; i < s.triggers.size(); ++i) {
    ctx.triggers_of_mac[s.triggers[i].mac.to_u64()].push_back(i);
  }
}

VerdictSet reference_verdicts(const Context& ctx,
                              const core::IoTSecurityService& service) {
  const core::ShardedGatewayConfig config = gateway_config();
  const Stream& s = ctx.stream;
  // Verdicts come from the extractor and the service; the data plane never
  // feeds them. So the reference gives its data plane the decision cache a
  // shard has and a 1 ms flow timeout: its flow table stays near empty and
  // the serial pass takes well under half the time, with the same
  // verdicts.
  core::GatewayConfig serial{config.extractor, config.controller};
  serial.controller.flow_idle_timeout_us = 1'000;
  sdn::SwitchRuleCache cache(config.switch_cache_entries);
  core::SecurityGateway gw(service, serial);
  gw.controller().attach_cache(&cache);
  gw.data_plane().set_rule_cache(&cache);
  std::size_t next_sweep = 0;
  for (std::size_t i = 0; i < s.frames.size(); ++i) {
    for (; next_sweep < s.sweeps.size() && s.sweeps[next_sweep].before == i;
         ++next_sweep) {
      gw.expire_departed(s.sweeps[next_sweep].now_us, s.depart_idle_us);
    }
    const Frame& f = s.frames[i];
    gw.on_frame(s.bytes(f), f.ts_us);
    if ((i + 1) % kExpiryStride == 0) gw.data_plane().expire_flows(f.ts_us);
  }
  if (ctx.final_sweep) gw.expire_departed(final_sweep_now(s), kFinalIdleUs);
  gw.finish_pending_captures();
  return verdict_set(gw.events());
}

RoundResult run_round(const Context& ctx, const VerdictSet& reference,
                      const RoundOptions& options) {
  const Stream& s = ctx.stream;
  const WorkloadSpec& spec = *ctx.spec;
  SpanLog* spans = options.spans;
  RoundResult r;
  // Each round replays its own copy of the bytes, on fresh pages.
  const std::vector<std::uint8_t> arena(s.arena);
  const auto bytes = [&arena](const Frame& f) {
    return std::span<const std::uint8_t>(arena.data() + f.offset, f.size);
  };

  const std::int64_t setup_start = now_ns();
  std::unique_ptr<core::IoTSecurityService> service =
      train_service(*ctx.corpus);
  const double rss_before = rss_mib();
  auto gw = std::make_unique<core::ShardedGateway>(*service, gateway_config());
  r.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  struct Callback {
    std::uint64_t mac = 0;
    std::int64_t t_ns = 0;
  };
  // Written only by the classifier thread until finish() joins it.
  std::vector<Callback> callbacks;
  callbacks.reserve(s.triggers.size() + spec.devices);
  SpanLog callback_spans;
  std::atomic<std::size_t> callback_count{0};
  gw->on_device_identified([&](const core::GatewayEvent& e) {
    const std::int64_t t = now_ns();
    callbacks.push_back({e.device.to_u64(), t});
    if (spans != nullptr) {
      callback_spans.add("gateway.observer", t, now_ns(), -1,
                         e.device.to_u64());
    }
    callback_count.fetch_add(1, std::memory_order_release);
  });

  std::vector<std::int64_t> trigger_ns(s.triggers.size(), 0);
  std::size_t next_trigger = 0;
  std::size_t next_sweep = 0;
  LayerTotals submit_totals;
  LayerTotals expire_totals;
  const auto sweeps_before = [&](std::size_t i) {
    for (; next_sweep < s.sweeps.size() && s.sweeps[next_sweep].before == i;
         ++next_sweep) {
      const std::int64_t a = now_ns();
      gw->expire_departed(s.sweeps[next_sweep].now_us, s.depart_idle_us);
      const std::int64_t b = now_ns();
      expire_totals.add(a, b);
      if (spans != nullptr) {
        spans->add("gateway.expire_departed", a, b, -1, next_sweep);
      }
    }
  };
  const auto stamp_triggers = [&](std::size_t i, std::int64_t due) {
    for (; next_trigger < s.triggers.size() &&
           s.triggers[next_trigger].frame == i;
         ++next_trigger) {
      trigger_ns[next_trigger] = due;
    }
  };

  // Untimed warm-up: identify the fleet, then wait for the pipeline to
  // drain so the timed window starts from an idle gateway.
  for (std::size_t i = 0; i < s.timed_begin; ++i) {
    sweeps_before(i);
    const Frame& f = s.frames[i];
    if (next_trigger < s.triggers.size() &&
        s.triggers[next_trigger].frame == i) {
      stamp_triggers(i, now_ns());
    }
    gw->submit(bytes(f), f.ts_us);
  }
  if (s.timed_begin > 0) {
    const std::int64_t deadline = now_ns() + kWarmupTimeoutNs;
    while (callback_count.load(std::memory_order_acquire) < next_trigger ||
           gw->stats().frames_processed < s.timed_begin) {
      if (now_ns() > deadline) {
        r.problems.push_back("warm-up did not drain");
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const bool open = spec.loop == Loop::kOpen && !options.force_closed;
  const double frame_ns = open ? 1e9 / spec.offered_fps : 0.0;
  const std::size_t timed = s.frames.size() - s.timed_begin;
  r.late_ms.reserve(open ? timed : timed / kClosedLoopSample + 1);
  const std::int64_t start = now_ns();
  for (std::size_t i = s.timed_begin, k = 0; i < s.frames.size(); ++i, ++k) {
    sweeps_before(i);
    const Frame& f = s.frames[i];
    const bool sampled = open || k % kClosedLoopSample == 0;
    const bool trigger = next_trigger < s.triggers.size() &&
                         s.triggers[next_trigger].frame == i;
    // Open loop: the frame is due on the fixed schedule. Closed loop: it
    // is due as soon as the generator reaches it.
    std::int64_t due = 0;
    if (open) {
      due = start + static_cast<std::int64_t>(static_cast<double>(k) * frame_ns);
      while (now_ns() < due) {
      }
    } else if (sampled || trigger || spans != nullptr) {
      due = now_ns();
    }
    if (trigger) stamp_triggers(i, due);
    gw->submit(bytes(f), f.ts_us);
    if (sampled || spans != nullptr) {
      const std::int64_t done = now_ns();
      if (sampled) r.late_ms.push_back(to_ms(done - due));
      if (spans != nullptr) {
        submit_totals.add(due, done);
        if (k % kSubmitSpanSample == 0) {
          spans->add("gateway.submit", due, done, -1, i);
        }
      }
    }
  }
  if (ctx.final_sweep) {
    const std::int64_t a = now_ns();
    gw->expire_departed(final_sweep_now(s), kFinalIdleUs);
    const std::int64_t b = now_ns();
    expire_totals.add(a, b);
    if (spans != nullptr) spans->add("gateway.expire_departed", a, b, -1, 0);
  }
  const std::int64_t finish_start = now_ns();
  gw->finish();
  const std::int64_t end = now_ns();
  if (spans != nullptr) {
    spans->add("gateway.finish", finish_start, end, -1, 0);
    spans->append(callback_spans);
  }
  r.rss_mib = rss_mib() - rss_before;
  r.wall_s = static_cast<double>(end - start) / 1e9;
  r.timed_frames = timed;
  r.frames_per_s = static_cast<double>(timed) / r.wall_s;
  r.submit_ns = submit_totals.mean_ns();
  r.finish_ms = to_ms(end - finish_start);
  r.expire_departed_us = expire_totals.mean_ns() / 1e3;

  // --- outputs, checked outside the timed region ---------------------
  r.frames_submitted = s.frames.size();
  r.stats = gw->stats();
  const std::vector<core::GatewayEvent> events = gw->events();
  r.verdicts = verdict_set(events);
  r.callbacks = callbacks.size();
  for (const core::GatewayEvent& e : events) {
    const auto it = ctx.device_of_mac.find(e.device.to_u64());
    if (it == ctx.device_of_mac.end()) continue;
    const std::size_t type = sim::FleetSim::type_index_of(*ctx.roster, it->second);
    if (ctx.roster->entries[type].profile.name == e.device_type) {
      ++r.correct_types;
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> seen;
  r.verdict_ms.reserve(callbacks.size());
  for (const Callback& cb : callbacks) {
    const std::size_t nth = seen[cb.mac]++;
    const auto it = ctx.triggers_of_mac.find(cb.mac);
    // Verdicts beyond the device's triggers were completed by finish().
    if (it == ctx.triggers_of_mac.end() || nth >= it->second.size()) continue;
    r.verdict_ms.push_back(to_ms(cb.t_ns - trigger_ns[it->second[nth]]));
  }

  const telemetry::Snapshot snap = gw->registry().snapshot();
  RoundResult::Telemetry& t = r.telemetry;
  t.packet_ins = scalar(snap, "controller.packet_ins");
  t.rule_installs = scalar(snap, "controller.rule_installs");
  t.invalidations_sent = scalar(snap, "controller.invalidations_sent");
  t.fingerprints_scored = scalar(snap, "classifier.fingerprints_scored");
  for (std::size_t i = 0; i < gw->num_shards(); ++i) {
    const std::string prefix = "gateway.shard" + std::to_string(i) + ".";
    t.frames += scalar(snap, prefix + "frames");
    t.fast_path += scalar(snap, prefix + "switch.fast_path");
    t.cached_path += scalar(snap, prefix + "switch.cached_path");
    t.slow_path += scalar(snap, prefix + "switch.slow_path");
    t.class_cache_hits += scalar(snap, prefix + "rule_cache.hits");
    t.class_cache_misses += scalar(snap, prefix + "rule_cache.misses");
    r.own_slow_path += gw->shard_data_plane(i).slow_path_packets();
  }

  r.attempted = r.frames_submitted + reference.size();
  const auto fail = [&r](std::uint64_t count, std::string what) {
    if (count == 0) return;
    r.failed += count;
    r.problems.push_back(std::move(what));
  };
  fail(r.frames_submitted - std::min(r.stats.frames_processed, r.frames_submitted),
       "frames submitted but not processed");
  fail(verdict_mismatches(reference, r.verdicts),
       "verdicts differ from the serial SecurityGateway");
  fail(t.frames != r.frames_submitted ? 1 : 0,
       "telemetry frame count disagrees with frames submitted");
  fail(t.packet_ins != r.own_slow_path ? 1 : 0,
       "telemetry packet-ins disagree with the data planes' slow-path count");
  fail(t.fingerprints_scored != r.callbacks || events.size() != r.callbacks
           ? 1
           : 0,
       "telemetry identifications disagree with observer callbacks");
  if (!r.problems.empty() && r.failed == 0) r.failed = 1;

  gw.reset();
  service.reset();
  // Return the round's memory to the OS, so the next round's gateway
  // state lands on fresh pages instead of this round's.
  malloc_trim(0);
  return r;
}

SerialBudget traced_serial_replay(const Context& ctx,
                                  const core::IoTSecurityService& service,
                                  SpanLog& spans, std::size_t sample) {
  const Stream& s = ctx.stream;
  const core::ShardedGatewayConfig config = gateway_config();
  SerialBudget b;
  // One shard's layers, serially over the whole stream.
  sdn::SwitchRuleCache cache(config.switch_cache_entries);
  sdn::Controller controller(config.controller);
  controller.attach_cache(&cache);
  sdn::SoftwareSwitch data_plane(controller);
  data_plane.set_rule_cache(&cache);
  core::DeviceTracker tracker;
  fp::SetupCaptureExtractor extractor(config.extractor);
  std::vector<core::ServiceVerdict> verdicts;
  std::vector<core::GatewayEvent> events;
  std::vector<net::MacAddress> departed;
  std::uint64_t last_ts = 0;
  std::int64_t capture_parent = -1;
  std::int64_t capture_ns = 0;

  spans.reserve(spans.spans().size() + s.frames.size() / sample * 6 +
                s.triggers.size() * 5 + ctx.spec->devices * 3);
  const std::int64_t start = now_ns();
  const std::int64_t root = spans.add("serial.replay", start, start, -1, 0);

  // SecurityGateway::handle_capture, called where it is: inside the
  // extractor's observe.
  extractor.on_capture_complete([&](const fp::DeviceCapture& c) {
    const std::int64_t t0 = now_ns();
    const fp::Fingerprint* batch[1] = {&c.fingerprint};
    service.assess_batch(batch, verdicts);
    const std::int64_t t1 = now_ns();
    controller.apply_rule(core::rule_for_verdict(verdicts[0], c.mac, last_ts),
                          last_ts);
    const std::int64_t t2 = now_ns();
    data_plane.flush_device(c.mac);
    const std::int64_t t3 = now_ns();
    tracker.mark_identified(c.mac, verdicts[0].device_type, verdicts[0].level);
    const std::int64_t t4 = now_ns();
    b.assess.add(t0, t1);
    b.apply_rule.add(t1, t2);
    b.flush_device.add(t2, t3);
    b.mark_identified.add(t3, t4);
    capture_ns += t4 - t0;
    const std::uint64_t id = c.mac.to_u64();
    const std::int64_t span = spans.add("core.capture", t0, t4, capture_parent, id);
    spans.add("core.assess", t0, t1, span, id);
    spans.add("sdn.apply_rule", t1, t2, span, id);
    spans.add("sdn.flush_device", t2, t3, span, id);
    spans.add("core.mark_identified", t3, t4, span, id);
    events.push_back(core::event_for_verdict(verdicts[0], c.mac, last_ts));
    b.fingerprints.push_back(c.fingerprint);
  });

  const auto sweep = [&](std::uint64_t now_us, std::uint64_t idle_us) {
    const std::int64_t t0 = now_ns();
    tracker.idle_devices_into(now_us, idle_us, departed);
    const std::int64_t t1 = now_ns();
    b.idle_scan.add(t0, t1);
    const std::int64_t span = spans.add("core.departure_sweep", t0, t1, root, now_us);
    spans.add("core.idle_scan", t0, t1, span, departed.size());
    for (const net::MacAddress& mac : departed) {
      const std::int64_t p = now_ns();
      controller.remove_device(mac, now_us);
      data_plane.flush_device(mac);
      const std::int64_t q = now_ns();
      extractor.forget(mac);
      tracker.forget(mac);
      const std::int64_t e = now_ns();
      b.remove_device.add(p, q);
      b.forget.add(q, e);
      spans.add("sdn.remove_device", p, q, span, mac.to_u64());
      spans.add("core.forget", q, e, span, mac.to_u64());
    }
    spans.set_bounds(span, t0, now_ns());
  };

  std::size_t next_sweep = 0;
  for (std::size_t i = 0; i < s.frames.size(); ++i) {
    for (; next_sweep < s.sweeps.size() && s.sweeps[next_sweep].before == i;
         ++next_sweep) {
      sweep(s.sweeps[next_sweep].now_us, s.depart_idle_us);
    }
    const Frame& f = s.frames[i];
    const std::span<const std::uint8_t> bytes = s.bytes(f);
    if (core::is_malformed_frame(bytes)) continue;
    const bool sampled = i % sample == 0;
    last_ts = f.ts_us;
    const std::int64_t frame_span =
        sampled ? spans.add("frame", 0, 0, root, i) : root;
    const std::int64_t observe_span =
        sampled ? spans.add("fingerprint.observe", 0, 0, frame_span, i) : root;
    capture_parent = observe_span;
    capture_ns = 0;

    const std::int64_t t0 = now_ns();
    const net::ParsedPacket pkt = net::parse_ethernet_frame(bytes, f.ts_us);
    const std::int64_t t1 = now_ns();
    tracker.observe(pkt, bytes);
    const std::int64_t t2 = now_ns();
    extractor.observe(pkt);
    const std::int64_t t3 = now_ns();
    const sdn::SwitchResult result = data_plane.process(pkt, f.ts_us);
    const std::int64_t t4 = now_ns();

    b.parse.add(t0, t1);
    b.tracker.add(t1, t2);
    // The extractor's self time excludes the capture handling it called.
    b.extractor.add(t2, t3 - capture_ns);
    const char* path_name = "sdn.switch.fast";
    LayerTotals* path = &b.sw_fast;
    if (result.path == sdn::SwitchPath::kCachedPath) {
      path_name = "sdn.switch.cached";
      path = &b.sw_cached;
    } else if (result.path == sdn::SwitchPath::kSlowPath) {
      path_name = "sdn.switch.slow";
      path = &b.sw_slow;
    }
    path->add(t3, t4);
    if (sampled) {
      spans.set_bounds(frame_span, t0, t4);
      spans.set_bounds(observe_span, t2, t3);
      spans.add("net.parse", t0, t1, frame_span, i);
      spans.add("core.tracker", t1, t2, frame_span, i);
      spans.add(path_name, t3, t4, frame_span, i);
    }
    if ((i + 1) % kExpiryStride == 0) {
      const std::int64_t e0 = now_ns();
      data_plane.expire_flows(f.ts_us);
      const std::int64_t e1 = now_ns();
      b.expire_flows.add(e0, e1);
      spans.add("sdn.expire_flows", e0, e1, root, i);
    }
  }
  if (ctx.final_sweep) sweep(final_sweep_now(s), kFinalIdleUs);
  capture_parent = root;
  capture_ns = 0;
  extractor.flush_all();
  const std::int64_t end = now_ns();
  spans.set_bounds(root, start, end);

  b.wall_ns = static_cast<double>(end - start);
  for (const LayerTotals* layer :
       {&b.parse, &b.tracker, &b.extractor, &b.sw_fast, &b.sw_cached,
        &b.sw_slow, &b.assess, &b.apply_rule, &b.flush_device,
        &b.mark_identified, &b.remove_device, &b.forget, &b.idle_scan,
        &b.expire_flows}) {
    b.covered_ns += layer->ns;
  }
  b.verdicts = verdict_set(events);
  return b;
}

ClassifierBreakdown classifier_breakdown(
    const core::IoTSecurityService& service,
    const std::vector<fp::Fingerprint>& fingerprints, SpanLog& spans) {
  const core::DeviceIdentifier& identifier = service.identifier();
  const double threshold = identifier.bank().config().accept_threshold;
  std::vector<double> scores(identifier.num_types());
  std::vector<std::size_t> candidates;
  ClassifierBreakdown out;
  out.fingerprints = fingerprints.size();
  const std::int64_t start = now_ns();
  const std::int64_t root =
      spans.add("classifier.breakdown", start, start, -1, fingerprints.size());
  for (std::size_t i = 0; i < fingerprints.size(); ++i) {
    const fp::Fingerprint& f = fingerprints[i];
    const std::int64_t t0 = now_ns();
    const fp::FixedFingerprint fixed =
        f.to_fixed(identifier.config().fixed_prefix);
    identifier.bank().score_batch({&fixed, 1}, scores);
    const std::int64_t t1 = now_ns();
    out.score.add(t0, t1);
    spans.add("ml.score", t0, t1, root, i);
    candidates.clear();
    for (std::size_t t = 0; t < scores.size(); ++t) {
      if (scores[t] >= threshold) candidates.push_back(t);
    }
    if (candidates.size() > 1) {
      const std::int64_t t2 = now_ns();
      const std::size_t winner = identifier.discriminate(f, candidates);
      const std::int64_t t3 = now_ns();
      out.discriminate.add(t2, t3);
      spans.add("distance.discriminate", t2, t3, root, winner);
      ++out.stage2;
    }
  }
  spans.set_bounds(root, start, now_ns());
  return out;
}

}  // namespace replaybench
