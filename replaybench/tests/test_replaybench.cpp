// The benchmark's own tests: the metric schema against BENCHMARK.json, the
// capture-completion triggers behind verdict latency, and the input
// digest's dependence on the seed alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <utility>

#include "net/builder.hpp"
#include "report.hpp"
#include "simnet/device_catalog.hpp"
#include "workload.hpp"

namespace {

using namespace replaybench;
namespace net = iotsentinel::net;

using Pairs = std::set<std::pair<std::string, std::string>>;

/// The {name, unit} pairs of one metric list in BENCHMARK.json.
Pairs spec_metrics(const std::string& section) {
  std::ifstream in(REPLAYBENCH_SPEC);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const auto key = json.find("\"" + section + "\"");
  EXPECT_NE(key, std::string::npos) << section;
  const auto open = json.find('[', key);
  const auto close = json.find(']', open);
  const std::string list = json.substr(open, close - open);
  const std::regex object(R"(\{[^}]*\})");
  const std::regex name(R"re("name"\s*:\s*"([^"]+)")re");
  const std::regex unit(R"re("unit"\s*:\s*"([^"]+)")re");
  Pairs out;
  for (auto it = std::sregex_iterator(list.begin(), list.end(), object);
       it != std::sregex_iterator(); ++it) {
    const std::string obj = it->str();
    std::smatch n;
    std::smatch u;
    EXPECT_TRUE(std::regex_search(obj, n, name)) << obj;
    EXPECT_TRUE(std::regex_search(obj, u, unit)) << obj;
    out.insert({n[1], u[1]});
  }
  return out;
}

Pairs table(std::span<const MetricDef> defs) {
  Pairs out;
  for (const MetricDef& d : defs) out.insert({std::string(d.name), std::string(d.unit)});
  return out;
}

TEST(ReplaybenchSchema, MetricTablesMatchBenchmarkJson) {
  EXPECT_EQ(spec_metrics("end_to_end"), table(end_to_end_metrics()));
  EXPECT_EQ(spec_metrics("per_layer"), table(per_layer_metrics()));
  EXPECT_EQ(end_to_end_metrics().size(), table(end_to_end_metrics()).size());
  EXPECT_EQ(per_layer_metrics().size(), table(per_layer_metrics()).size());
}

TEST(ReplaybenchSchema, ResultLineCarriesEveryMetricWithItsUnit) {
  for (const auto defs : {end_to_end_metrics(), per_layer_metrics()}) {
    MetricValues values;
    for (const MetricDef& d : defs) values[std::string(d.name)] = 1.25;
    const std::string line = result_line(true, 10, 0, defs, values);
    EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
                         "\"metrics\": {",
                         0),
              0u)
        << line;
    for (const MetricDef& d : defs) {
      std::string entry = json_string(d.name);
      entry.append(": {\"value\": 1.25, \"unit\": ").append(json_string(d.unit));
      entry.append("}");
      EXPECT_NE(line.find(entry), std::string::npos) << entry;
    }
  }
}

// --- capture-completion triggers ----------------------------------------

const net::MacAddress kA = net::MacAddress::of(0x02, 0, 0, 0, 0, 0x0a);
const net::MacAddress kB = net::MacAddress::of(0x02, 0, 0, 0, 0, 0x0b);
const net::MacAddress kC = net::MacAddress::of(0x02, 0, 0, 0, 0, 0x0c);

void add_frame(Stream& s, const net::MacAddress& mac, std::uint64_t ts_s) {
  const net::Bytes bytes = net::build_gratuitous_arp(
      mac, net::Ipv4Address::of(192, 168, 0, mac.octets()[5]));
  s.frames.push_back({ts_s * 1'000'000, s.arena.size(),
                      static_cast<std::uint32_t>(bytes.size()), 0});
  s.arena.insert(s.arena.end(), bytes.begin(), bytes.end());
}

/// A and C send four setup frames a second apart (the extractor's
/// minimum); B's single frame at 20 s passes A's 10 s idle deadline; C
/// speaks again at 30 s.
Stream hand_built_stream() {
  Stream s;
  for (std::uint64_t t = 0; t < 4; ++t) add_frame(s, kA, t);      // 0..3
  for (std::uint64_t t = 4; t < 8; ++t) add_frame(s, kC, t);      // 4..7
  add_frame(s, kB, 20);                                           // 8
  add_frame(s, kC, 30);                                           // 9
  return s;
}

std::set<std::pair<std::size_t, std::uint64_t>> as_set(
    const std::vector<Trigger>& triggers) {
  std::set<std::pair<std::size_t, std::uint64_t>> out;
  for (const Trigger& t : triggers) out.insert({t.frame, t.mac.to_u64()});
  return out;
}

TEST(ReplaybenchTriggers, CaptureCompletesAtNextFrameOfItsShard) {
  const Stream s = hand_built_stream();
  // A and B share shard 0; C is alone on shard 1, so its capture stays
  // open until its own next frame.
  const Router split = [](const net::MacAddress& m) {
    return m == kC ? std::size_t{1} : std::size_t{0};
  };
  EXPECT_EQ(as_set(find_triggers(s, split, 2)),
            (std::set<std::pair<std::size_t, std::uint64_t>>{
                {8, kA.to_u64()}, {9, kC.to_u64()}}));

  // On one shard, B's frame passes both deadlines.
  const Router one = [](const net::MacAddress&) { return std::size_t{0}; };
  EXPECT_EQ(as_set(find_triggers(s, one, 1)),
            (std::set<std::pair<std::size_t, std::uint64_t>>{
                {8, kA.to_u64()}, {8, kC.to_u64()}}));
}

TEST(ReplaybenchTriggers, DepartureSweepDiscardsOpenCapture) {
  Stream s = hand_built_stream();
  // C has been silent since 7 s; a sweep at 29 s with a 5 s idle
  // threshold forgets it before its 30 s frame, so its open capture never
  // completes and the 30 s frame starts a new one.
  s.sweeps.push_back({9, 29'000'000});
  s.depart_idle_us = 5'000'000;
  const Router split = [](const net::MacAddress& m) {
    return m == kC ? std::size_t{1} : std::size_t{0};
  };
  EXPECT_EQ(as_set(find_triggers(s, split, 2)),
            (std::set<std::pair<std::size_t, std::uint64_t>>{
                {8, kA.to_u64()}}));
}

// --- input digest --------------------------------------------------------

WorkloadSpec tiny_spec() {
  WorkloadSpec spec;
  spec.name = "tiny";
  spec.devices = 40;
  spec.join_window_us = 30'000'000;
  spec.sim_end_us = 90'000'000;
  return spec;
}

std::uint64_t tiny_digest(std::uint64_t seed) {
  const Router route = [](const net::MacAddress& m) {
    return static_cast<std::size_t>(m.to_u64() % 2);
  };
  return input_digest(build_stream(tiny_spec(), iotsentinel::sim::device_roster(),
                                   seed, route, 2));
}

TEST(ReplaybenchDigest, FixedSeedGivesFixedDigest) {
  const std::uint64_t seven = tiny_digest(7);
  EXPECT_EQ(seven, tiny_digest(7));
  EXPECT_NE(seven, tiny_digest(8));
  // Pinned: a change here means the replayed bytes changed.
  EXPECT_EQ(seven, 0x87ecc811111d467eull);
}

}  // namespace
