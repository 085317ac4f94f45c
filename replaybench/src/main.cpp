// replay_bench: replays a FleetSim workload through core::ShardedGateway.
//
//   replay_bench --workload standby|onboarding|churn --seed N --seconds S
//                --trace 0|1 [--trace-out PATH] [--git-sha SHA]
//
// Untraced runs repeat whole rounds (set up, warm up, replay, finish,
// check) for S seconds and report each end-to-end metric as the median
// over rounds. Traced runs report the per-layer budget instead. Every
// run checks its outputs against the serial SecurityGateway; the last
// line of stdout is the result object, and the exit code is nonzero when
// any check failed.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "replay.hpp"
#include "report.hpp"
#include "simnet/device_catalog.hpp"

namespace {

using namespace replaybench;
namespace core = iotsentinel::core;
namespace net = iotsentinel::net;
namespace sim = iotsentinel::sim;

/// A median needs a few samples, however short --seconds is.
constexpr std::size_t kMinRounds = 3;
/// Extra set-ups timed before each untraced round, besides the round's
/// own. Spreading them over the run keeps one slow stretch of the host
/// from setting the median.
constexpr std::size_t kSetupSamplesPerRound = 4;
/// The traced serial replay keeps the spans of one frame in this many.
constexpr std::size_t kFrameSpanSample = 256;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  int trace = -1;
  std::string trace_out;
  std::string git_sha = "unknown";
};

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return false;
    const char* key = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      opt.workload = value;
    } else if (std::strcmp(key, "--seed") == 0) {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (std::strcmp(key, "--seconds") == 0) {
      opt.seconds = std::strtoull(value, &end, 10);
      if (*end != '\0' || opt.seconds == 0) return false;
    } else if (std::strcmp(key, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      opt.trace = value[0] - '0';
    } else if (std::strcmp(key, "--trace-out") == 0) {
      opt.trace_out = value;
    } else if (std::strcmp(key, "--git-sha") == 0) {
      opt.git_sha = value;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0 && opt.trace >= 0;
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const RoundResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& p : r.problems) {
      std::fprintf(stderr, "replay_bench: FAILED: %s\n", p.c_str());
    }
  }
};

void print_round(std::size_t i, const RoundResult& r) {
  std::printf(
      "round %zu: setup %.4f s, %" PRIu64 " timed frames in %.4f s = %.0f "
      "frames/s, verdicts %zu (p50 %.3f ms, p90 %.3f ms, p99 %.3f ms over %zu), "
      "late p99 %.4f ms over %zu, rss %+.1f MiB, stalls %" PRIu64 "\n",
      i, r.setup_s, r.timed_frames, r.wall_s, r.frames_per_s,
      r.verdicts.size(), percentile(r.verdict_ms, 0.5),
      percentile(r.verdict_ms, 0.9), percentile(r.verdict_ms, 0.99), r.verdict_ms.size(),
      percentile(r.late_ms, 0.99), r.late_ms.size(), r.rss_mib,
      r.stats.submit_stalls);
}

MetricValues end_to_end(const std::vector<RoundResult>& rounds,
                        std::vector<double> setup) {
  std::vector<double> fps, p50, p99, late;
  std::size_t verdicts = 0;
  std::size_t correct = 0;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    fps.push_back(r.frames_per_s);
    p50.push_back(percentile(r.verdict_ms, 0.5));
    p99.push_back(percentile(r.verdict_ms, 0.99));
    late.push_back(percentile(r.late_ms, 0.99));
    verdicts += r.verdicts.size();
    correct += r.correct_types;
  }
  return {{"setup_s", median(setup)},
          {"frames_per_s", median(fps)},
          {"verdict_ms_p50", median(p50)},
          {"verdict_ms_p99", median(p99)},
          {"submit_late_ms_p99", median(late)},
          {"ident_accuracy", share(correct, verdicts)}};
}

MetricValues per_layer(const SerialBudget& b, const ClassifierBreakdown& c,
                       const RoundResult& plain, const RoundResult& traced) {
  const RoundResult::Telemetry& t = plain.telemetry;
  std::uint64_t high_water = 0;
  std::uint64_t busiest = 0;
  for (const auto& shard : plain.stats.shards) {
    high_water = std::max(high_water, shard.ring_high_water);
    busiest = std::max(busiest, shard.frames_processed);
  }
  const double mean_shard = static_cast<double>(plain.stats.frames_processed) /
                            static_cast<double>(plain.stats.shards.size());
  return {
      {"net.parse_ns", b.parse.mean_ns()},
      {"core.tracker_ns", b.tracker.mean_ns()},
      {"fingerprint.observe_ns", b.extractor.mean_ns()},
      {"sdn.cached_ns", b.sw_cached.mean_ns()},
      {"sdn.slow_ns", b.sw_slow.mean_ns()},
      {"sdn.cached_share", share(t.cached_path, t.frames)},
      {"sdn.slow_share", share(t.slow_path, t.frames)},
      {"sdn.fast_share", share(t.fast_path, t.frames)},
      {"sdn.apply_rule_us", b.apply_rule.mean_ns() / 1e3},
      {"sdn.remove_device_us", b.remove_device.mean_ns() / 1e3},
      {"sdn.packet_ins", static_cast<double>(t.packet_ins)},
      {"sdn.rule_installs", static_cast<double>(t.rule_installs)},
      {"sdn.invalidations_sent", static_cast<double>(t.invalidations_sent)},
      {"sdn.class_cache_hit_ratio",
       share(t.class_cache_hits, t.class_cache_hits + t.class_cache_misses)},
      {"core.assess_us", b.assess.mean_ns() / 1e3},
      {"ml.score_us", c.score.mean_ns() / 1e3},
      {"distance.discriminate_us", c.discriminate.mean_ns() / 1e3},
      {"distance.stage2_share", share(c.stage2, c.fingerprints)},
      {"gateway.submit_ns", traced.submit_ns},
      {"gateway.stall_share",
       share(plain.stats.submit_stalls, plain.frames_submitted)},
      {"gateway.ring_high_water", static_cast<double>(high_water)},
      {"gateway.shard_skew", static_cast<double>(busiest) / mean_shard},
      {"gateway.finish_ms", traced.finish_ms},
      {"gateway.expire_departed_us", traced.expire_departed_us},
      {"trace.coverage", b.covered_ns / b.wall_ns},
      {"trace.overhead", traced.wall_s / plain.wall_s - 1.0},
  };
}

std::string values_json(const MetricValues& values) {
  std::string out = "{";
  for (const auto& [name, v] : values) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", v);
    out += (out.size() > 1 ? ", " : "") + json_string(name) + ": " + value;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH] [--git-sha SHA]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec* spec = find_workload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "replay_bench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }

  // --- set-up, outside every timed region ------------------------------
  const std::int64_t prep_start = now_ns();
  const sim::Roster& roster = sim::device_roster();
  const sim::FingerprintCorpus corpus =
      sim::generate_corpus(/*runs_per_type=*/20, /*seed=*/42);
  Context ctx;
  ctx.spec = spec;
  ctx.roster = &roster;
  ctx.corpus = &corpus;
  ctx.final_sweep = opt.trace == 1 && spec->sweep_every_us == 0;
  const auto service = train_service(corpus);
  {
    // Routing comes from the gateway itself.
    const core::ShardedGateway router(*service, gateway_config());
    ctx.stream = build_stream(
        *spec, roster, opt.seed,
        [&router](const net::MacAddress& mac) { return router.shard_of(mac); },
        router.num_shards());
  }
  const std::uint64_t digest = input_digest(ctx.stream);
  index_context(ctx);
  const std::int64_t ref_start = now_ns();
  const VerdictSet reference = reference_verdicts(ctx, *service);
  const std::int64_t ref_end = now_ns();
  const Stream& s = ctx.stream;
  std::printf("replay_bench %s seed %" PRIu64 ": %zu frames (%zu warm-up), "
              "%zu sweeps, %zu capture triggers, digest %016" PRIx64 "\n",
              opt.workload.c_str(), opt.seed, s.frames.size(), s.timed_begin,
              s.sweeps.size(), s.triggers.size(), digest);
  std::printf("set-up %.2f s; serial reference: %zu verdicts in %.2f s\n",
              static_cast<double>(ref_start - prep_start) / 1e9,
              reference.size(), static_cast<double>(ref_end - ref_start) / 1e9);

  Outcome outcome;
  MetricValues values;
  std::span<const MetricDef> defs;
  std::size_t rounds_run = 0;
  if (opt.trace == 0) {
    defs = end_to_end_metrics();
    std::vector<double> setups;
    const auto sample_setups = [&] {
      for (std::size_t i = 0; i < kSetupSamplesPerRound; ++i) {
        setups.push_back(timed_setup(corpus));
      }
    };
    sample_setups();
    // The first round of a process runs cold (fresh allocator arenas for
    // the gateway's threads): it is checked and gives gateway_rss_mib,
    // but its timings are not used.
    const RoundResult warm = run_round(ctx, reference, {.force_closed = true});
    print_round(0, warm);
    outcome.add(warm);
    std::vector<RoundResult> rounds;
    const std::int64_t begin = now_ns();
    const auto budget_ns = static_cast<std::int64_t>(opt.seconds) * 1'000'000'000;
    while (rounds.size() < kMinRounds || now_ns() - begin < budget_ns) {
      sample_setups();
      rounds.push_back(run_round(ctx, reference, {}));
      print_round(rounds.size(), rounds.back());
      outcome.add(rounds.back());
    }
    rounds_run = rounds.size() + 1;
    values = end_to_end(rounds, std::move(setups));
    values["gateway_rss_mib"] = warm.rss_mib;
    std::uint64_t stalls = 0;
    std::uint64_t frames = 0;
    for (const RoundResult& r : rounds) {
      stalls += r.stats.submit_stalls;
      frames += r.frames_submitted;
    }
    values["gateway.stall_share"] = share(stalls, frames);
  } else {
    defs = per_layer_metrics();
    SpanLog spans;
    const SerialBudget budget =
        traced_serial_replay(ctx, *service, spans, kFrameSpanSample);
    const std::size_t serial_mismatch =
        verdict_mismatches(reference, budget.verdicts);
    outcome.attempted += reference.size();
    outcome.failed += serial_mismatch;
    if (serial_mismatch > 0) {
      std::fprintf(stderr,
                   "replay_bench: FAILED: traced serial replay verdicts "
                   "differ from the serial SecurityGateway\n");
    }
    const ClassifierBreakdown breakdown =
        classifier_breakdown(*service, budget.fingerprints, spans);
    // The first gateway round of a process runs cold; it only warms up.
    const RoundResult warm = run_round(ctx, reference, {.force_closed = true});
    print_round(0, warm);
    outcome.add(warm);
    const RoundResult traced =
        run_round(ctx, reference, {.force_closed = true, .spans = &spans});
    print_round(1, traced);
    outcome.add(traced);
    const RoundResult plain = run_round(ctx, reference, {.force_closed = true});
    print_round(2, plain);
    outcome.add(plain);
    rounds_run = 3;
    values = per_layer(budget, breakdown, plain, traced);
    std::printf("serial replay %.3f s, layer self time %.3f s\n",
                budget.wall_ns / 1e9, budget.covered_ns / 1e9);
    if (!opt.trace_out.empty()) {
      if (spans.write_jsonl(opt.trace_out)) {
        std::printf("wrote %zu spans to %s\n", spans.spans().size(),
                    opt.trace_out.c_str());
      } else {
        std::fprintf(stderr, "replay_bench: cannot write %s\n",
                     opt.trace_out.c_str());
      }
    }
  }

  values["failed_share"] = share(outcome.failed, outcome.attempted);
  std::set<std::string_view> printed;
  for (const auto& list : {defs, reported_metrics()}) {
    for (const MetricDef& def : list) {
      const auto it = values.find(def.name);
      if (it == values.end() || !printed.insert(def.name).second) continue;
      std::printf("  %-28s %16.6f %s\n", it->first.c_str(), it->second,
                  std::string(def.unit).c_str());
    }
  }

  char config[512];
  std::snprintf(config, sizeof config,
                "{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %" PRIu64 ", \"trace\": %d, \"shards\": %zu"
                ", \"devices\": %zu, \"frames\": %zu, \"warmup_frames\": %zu"
                ", \"sweeps\": %zu, \"rounds\": %zu"
                ", \"input_digest\": \"%016" PRIx64 "\"}",
                opt.workload.c_str(), opt.seed, opt.seconds, opt.trace, kShards,
                spec->devices, s.frames.size(), s.timed_begin, s.sweeps.size(),
                rounds_run, digest);
  std::printf("{\"machine\": %s, \"config\": %s, \"results\": %s}\n",
              machine_json(opt.git_sha).c_str(), config,
              values_json(values).c_str());

  const bool correct = outcome.failed == 0;
  std::printf("%s\n", result_line(correct, outcome.attempted, outcome.failed,
                                   defs, values)
                          .c_str());
  return correct ? 0 : 1;
}
