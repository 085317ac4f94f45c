#include "report.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace replaybench {

namespace {

constexpr std::array<MetricDef, 5> kEndToEnd{{
    {"setup_s", "s"},
    {"frames_per_s", "1/s"},
    {"verdict_ms_p50", "ms"},
    {"gateway_rss_mib", "MiB"},
    {"ident_accuracy", "share"},
}};

// Tails of sub-millisecond waits: on a shared 4-vCPU host their
// run-to-run spread is several times any usable bound, so they are
// printed with every run but not gated.
constexpr std::array<MetricDef, 4> kReported{{
    {"verdict_ms_p99", "ms"},
    {"submit_late_ms_p99", "ms"},
    {"gateway.stall_share", "share"},
    {"failed_share", "share"},
}};

constexpr std::array<MetricDef, 26> kPerLayer{{
    {"net.parse_ns", "ns"},
    {"core.tracker_ns", "ns"},
    {"fingerprint.observe_ns", "ns"},
    {"sdn.cached_ns", "ns"},
    {"sdn.slow_ns", "ns"},
    {"sdn.cached_share", "share"},
    {"sdn.slow_share", "share"},
    {"sdn.fast_share", "share"},
    {"sdn.apply_rule_us", "us"},
    {"sdn.remove_device_us", "us"},
    {"sdn.packet_ins", "count"},
    {"sdn.rule_installs", "count"},
    {"sdn.invalidations_sent", "count"},
    {"sdn.class_cache_hit_ratio", "share"},
    {"core.assess_us", "us"},
    {"ml.score_us", "us"},
    {"distance.discriminate_us", "us"},
    {"distance.stage2_share", "share"},
    {"gateway.submit_ns", "ns"},
    {"gateway.stall_share", "share"},
    {"gateway.ring_high_water", "count"},
    {"gateway.shard_skew", "ratio"},
    {"gateway.finish_ms", "ms"},
    {"gateway.expire_departed_us", "us"},
    {"trace.coverage", "share"},
    {"trace.overhead", "share"},
}};

#ifndef REPLAYBENCH_BUILD_TYPE
#define REPLAYBENCH_BUILD_TYPE "unknown"
#endif
#ifndef REPLAYBENCH_CXX_FLAGS
#define REPLAYBENCH_CXX_FLAGS "unknown"
#endif

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::span<const MetricDef> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricDef> per_layer_metrics() { return kPerLayer; }
std::span<const MetricDef> reported_metrics() { return kReported; }

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, std::span<const MetricDef> defs,
                        const MetricValues& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    if (it == values.end()) continue;
    char value[64];
    // Every digit the double holds; JSON has no NaN or infinity.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(it->second) ? it->second : 0.0);
    out += first ? "" : ", ";
    out += json_string(def.name) + ": {\"value\": " + value +
           ", \"unit\": " + json_string(def.unit) + "}";
    first = false;
  }
  return out + "}}";
}

std::string machine_json(const std::string& git_sha) {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + json_string(cpu_model()) +
         ", \"compiler\": " + json_string(compiler()) +
         ", \"build_type\": " + json_string(REPLAYBENCH_BUILD_TYPE) +
         ", \"cxx_flags\": " + json_string(REPLAYBENCH_CXX_FLAGS) +
         ", \"git_sha\": " + json_string(git_sha) + "}";
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace replaybench
