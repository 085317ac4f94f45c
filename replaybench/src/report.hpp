// Metric names and units, the machine record, and the result line.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace replaybench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Reported by untraced runs (BENCHMARK.json "end_to_end").
[[nodiscard]] std::span<const MetricDef> end_to_end_metrics();
/// Reported by traced runs (BENCHMARK.json "per_layer").
[[nodiscard]] std::span<const MetricDef> per_layer_metrics();
/// Printed by untraced runs beside the end-to-end metrics, not gated.
[[nodiscard]] std::span<const MetricDef> reported_metrics();

using MetricValues = std::map<std::string, double, std::less<>>;

/// The contract's last line: {"correct", "attempted", "failed",
/// "metrics"} with one {"value", "unit"} per metric of `defs`. Metrics
/// missing from `values` are left out (and so fail the schema test).
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      std::span<const MetricDef> defs,
                                      const MetricValues& values);

/// nproc, CPU model, compiler and version, build type and flags, git sha.
[[nodiscard]] std::string machine_json(const std::string& git_sha);

/// JSON string literal (quotes included).
[[nodiscard]] std::string json_string(std::string_view s);

/// Linear-interpolated percentile `q` in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

}  // namespace replaybench
