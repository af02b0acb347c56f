// Tests for geo::LatencyMatrix (the live WAN emulation's data layer):
// construction validation, the nine-region table and its presets, the
// matrix-file parser, placement helpers, and the ChaosInjector contract
// that geo delays are deterministic per directed link.
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "geo/latency_matrix.hpp"
#include "net/latency.hpp"
#include "transport/chaos.hpp"

namespace twostep::geo {
namespace {

TEST(LatencyMatrix, ValidatesShapeAndCells) {
  EXPECT_THROW(LatencyMatrix({}, {}), std::invalid_argument);
  EXPECT_THROW(LatencyMatrix({"a", "b"}, {{0, 1}}), std::invalid_argument);  // not square
  EXPECT_THROW(LatencyMatrix({"a", "b"}, {{0, 1}, {1}}), std::invalid_argument);
  EXPECT_THROW(LatencyMatrix({"a"}, {{-1}}), std::invalid_argument);  // negative cell
  EXPECT_THROW(LatencyMatrix({"a"}, {{0}}, -1), std::invalid_argument);  // negative jitter
  EXPECT_THROW(LatencyMatrix({"a", "a"}, {{0, 1}, {1, 0}}), std::invalid_argument);
}

TEST(LatencyMatrix, AccessorsAndBounds) {
  const LatencyMatrix m({"x", "y"}, {{0, 10}, {20, 0}}, 3);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.one_way_us(0, 1), 10);
  EXPECT_EQ(m.one_way_us(1, 0), 20);
  EXPECT_EQ(m.jitter_us(), 3);
  EXPECT_EQ(m.max_one_way_us(), 20);
  EXPECT_EQ(m.region_index("y"), 1);
  EXPECT_EQ(m.region_index("z"), -1);
  EXPECT_THROW((void)m.one_way_us(0, 2), std::out_of_range);
  EXPECT_THROW((void)m.one_way_us(-1, 0), std::out_of_range);
}

// The one nine-region table, as live runs and the simulator read it: 0 µs
// same-region cells and 2 ms of jitter live; one tick per ms, the diagonal
// floored at one tick, and 0-2 ticks of jitter in the simulator.
TEST(LatencyMatrix, NineRegionsPinsTheSimulatorTicks) {
  const LatencyMatrix live = LatencyMatrix::nine_regions();
  ASSERT_EQ(live.size(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(live.one_way_us(i, i), 0);
  EXPECT_EQ(live.one_way_us(0, 2), 38'000);  // us-east -> eu-west
  EXPECT_EQ(live.jitter_us(), 2'000);
  EXPECT_EQ(live.region_index("us-east"), 0);
  EXPECT_EQ(live.region_index("au-southeast"), 8);

  const net::WanMatrix sim{live, round_robin_placement(9, live)};
  EXPECT_EQ(sim.sites(), 9);
  EXPECT_EQ(sim.delta(), 162);  // sa-east <-> ap-southeast, 160 ms, plus 2
  util::Rng rng{3};
  bool saw[3] = {false, false, false};
  for (int i = 0; i < 200; ++i) {
    const sim::Tick use_euw = sim.delivery_time(1000, 0, 2, rng) - 1000;
    ASSERT_GE(use_euw, 38);
    ASSERT_LE(use_euw, 40);
    saw[use_euw - 38] = true;
    const sim::Tick local = sim.delivery_time(0, 4, 4, rng);  // ap-northeast to itself
    ASSERT_GE(local, 1);
    ASSERT_LE(local, 3);
  }
  EXPECT_TRUE(saw[0] && saw[1] && saw[2]);
}

TEST(LatencyMatrix, ScaleCompressesEveryCell) {
  const LatencyMatrix full = LatencyMatrix::nine_regions();
  const LatencyMatrix small = LatencyMatrix::nine_regions(0.01);
  for (std::size_t i = 0; i < full.size(); ++i)
    for (std::size_t j = 0; j < full.size(); ++j) {
      const auto fi = static_cast<int>(i), fj = static_cast<int>(j);
      EXPECT_NEAR(static_cast<double>(small.one_way_us(fi, fj)),
                  static_cast<double>(full.one_way_us(fi, fj)) * 0.01, 0.5);
    }
  EXPECT_NEAR(static_cast<double>(small.jitter_us()),
              static_cast<double>(full.jitter_us()) * 0.01, 0.5);
}

TEST(LatencyMatrix, PresetsAreRestrictionsOfNineRegions) {
  const LatencyMatrix nine = LatencyMatrix::nine_regions();
  const LatencyMatrix us_eu = LatencyMatrix::preset("us-eu");
  ASSERT_EQ(us_eu.size(), 4u);
  EXPECT_EQ(us_eu.regions(),
            (std::vector<std::string>{"us-east", "us-west", "eu-west", "eu-central"}));
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_EQ(us_eu.one_way_us(i, j), nine.one_way_us(i, j));

  const LatencyMatrix global = LatencyMatrix::preset("global");
  ASSERT_EQ(global.size(), 5u);
  EXPECT_EQ(global.regions(), (std::vector<std::string>{"us-east", "eu-west", "ap-northeast",
                                                        "sa-east", "au-southeast"}));
  // Spot-check one off-diagonal against the source indices {0,2,4,7,8}.
  EXPECT_EQ(global.one_way_us(0, 2), nine.one_way_us(0, 4));
  EXPECT_EQ(global.one_way_us(3, 4), nine.one_way_us(7, 8));

  EXPECT_TRUE(LatencyMatrix::is_preset("nine-regions"));
  EXPECT_FALSE(LatencyMatrix::is_preset("mars"));
  EXPECT_THROW(LatencyMatrix::preset("mars"), std::invalid_argument);
}

TEST(LatencyMatrix, RestrictValidatesIndices) {
  const LatencyMatrix nine = LatencyMatrix::nine_regions();
  EXPECT_THROW(nine.restrict({0, 9}), std::out_of_range);
  EXPECT_THROW(nine.restrict({}), std::invalid_argument);  // empty restriction: no regions
}

std::string write_temp_matrix(const std::string& name, const std::string& body) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path, std::ios::trunc);
  out << body;
  return path;
}

TEST(LatencyMatrix, FromFileParsesTheDocumentedFormat) {
  const std::string path = write_temp_matrix("geo-ok.txt",
                                             "# three sites\n"
                                             "regions us-east eu-west tokyo\n"
                                             "jitter_us 500\n"
                                             "0 38000 75000\n"
                                             "38000 0 105000  # trailing comment\n"
                                             "75000 105000 0\n");
  const LatencyMatrix m = LatencyMatrix::from_file(path);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.regions()[2], "tokyo");
  EXPECT_EQ(m.jitter_us(), 500);
  EXPECT_EQ(m.one_way_us(0, 2), 75000);
  EXPECT_EQ(m.one_way_us(2, 1), 105000);

  const LatencyMatrix scaled = LatencyMatrix::from_file(path, 0.5);
  EXPECT_EQ(scaled.one_way_us(0, 1), 19000);
  EXPECT_EQ(scaled.jitter_us(), 250);
}

TEST(LatencyMatrix, FromFileRejectsMalformedInput) {
  EXPECT_THROW(LatencyMatrix::from_file(testing::TempDir() + "geo-no-such-file.txt"),
               std::invalid_argument);
  EXPECT_THROW(
      LatencyMatrix::from_file(write_temp_matrix("geo-short-row.txt",
                                                 "regions a b\n0 1\n1\n")),
      std::invalid_argument);
  EXPECT_THROW(
      LatencyMatrix::from_file(write_temp_matrix("geo-junk-cell.txt",
                                                 "regions a b\n0 x\n1 0\n")),
      std::invalid_argument);
  EXPECT_THROW(
      LatencyMatrix::from_file(write_temp_matrix("geo-missing-rows.txt", "regions a b\n0 1\n")),
      std::invalid_argument);
  EXPECT_THROW(LatencyMatrix::from_file(write_temp_matrix("geo-no-regions.txt", "0 1\n1 0\n")),
               std::invalid_argument);
}

TEST(LatencyMatrix, FromFileRejectsTrailingJitterTokens) {
  // A separate token and one glued to the number: both used to parse as 5.
  for (const char* jitter : {"jitter_us 5 junk", "jitter_us 5abc"}) {
    const std::string path = write_temp_matrix(
        "geo-jitter-junk.txt", std::string("regions a b\n") + jitter + "\n0 1\n1 0\n");
    try {
      (void)LatencyMatrix::from_file(path);
      ADD_FAILURE() << "accepted '" << jitter << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":2:"), std::string::npos) << e.what();
    }
  }
}

TEST(LatencyMatrix, FromSpecPrefersPresetsThenFiles) {
  EXPECT_EQ(LatencyMatrix::from_spec("us-eu").size(), 4u);
  const std::string path =
      write_temp_matrix("geo-spec.txt", "regions a b\n0 7\n7 0\n");
  EXPECT_EQ(LatencyMatrix::from_spec(path).one_way_us(0, 1), 7);
  EXPECT_THROW(LatencyMatrix::from_spec("definitely-not-a-preset-or-file"),
               std::invalid_argument);
}

TEST(Placement, RoundRobinAndExplicitSpecs) {
  const LatencyMatrix us_eu = LatencyMatrix::preset("us-eu");
  EXPECT_EQ(round_robin_placement(6, us_eu), (std::vector<int>{0, 1, 2, 3, 0, 1}));
  EXPECT_EQ(parse_placement("0,2,2", us_eu), (std::vector<int>{0, 2, 2}));
  EXPECT_EQ(parse_placement("us-east,eu-west,eu-central", us_eu), (std::vector<int>{0, 2, 3}));
  EXPECT_THROW(parse_placement("us-east,mars", us_eu), std::invalid_argument);
  EXPECT_THROW(parse_placement("0,4", us_eu), std::invalid_argument);
  EXPECT_THROW(parse_placement("", us_eu), std::invalid_argument);
}

// --- ChaosInjector integration: the determinism contract ---

transport::ChaosConfig geo_config(std::int64_t jitter_us) {
  transport::ChaosConfig config;
  config.geo = std::make_shared<const LatencyMatrix>(
      LatencyMatrix({"a", "b", "c"}, {{0, 100, 200}, {100, 0, 300}, {200, 300, 0}}, jitter_us));
  config.geo_regions = {0, 1, 2};
  config.seed = 7;
  return config;
}

TEST(ChaosGeo, AddsBaseDelayPerDirectedLink) {
  transport::ChaosInjector inj(geo_config(0), /*self=*/0);
  EXPECT_EQ(inj.geo_base_delay_us(1), 100);
  EXPECT_EQ(inj.geo_base_delay_us(2), 200);
  EXPECT_EQ(inj.geo_base_delay_us(0), 0);  // same region: loopback baseline
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(inj.decide(i, 1).extra_delay, 100);  // no jitter: exact
    EXPECT_EQ(inj.decide(i, 2).extra_delay, 200);
  }
}

TEST(ChaosGeo, JitterIsBoundedAndSeeded) {
  transport::ChaosInjector inj(geo_config(50), /*self=*/1);
  bool varied = false;
  sim::Tick first = -1;
  for (int i = 0; i < 64; ++i) {
    const auto d = inj.decide(i, 0);
    EXPECT_GE(d.extra_delay, 100);
    EXPECT_LE(d.extra_delay, 150);
    if (first < 0) first = d.extra_delay;
    if (d.extra_delay != first) varied = true;
  }
  EXPECT_TRUE(varied);  // 64 draws over a 51-value range: all-equal is a bug
}

TEST(ChaosGeo, DelaySequencePerLinkIsInterleavingIndependent) {
  // Stream A: talk only to peer 1.  Stream B: interleave peers 1 and 2.
  // The per-link sequences must match draw for draw — each directed link
  // owns a jitter stream seeded from (config.seed, self, to) alone.
  transport::ChaosInjector only_one(geo_config(50), /*self=*/0);
  transport::ChaosInjector interleaved(geo_config(50), /*self=*/0);
  std::vector<sim::Tick> a, b;
  for (int i = 0; i < 32; ++i) a.push_back(only_one.decide(i, 1).extra_delay);
  for (int i = 0; i < 32; ++i) {
    b.push_back(interleaved.decide(i, 1).extra_delay);
    (void)interleaved.decide(i, 2);  // traffic on another link must not perturb link 1
  }
  EXPECT_EQ(a, b);
}

TEST(ChaosGeo, DistinctSendersDrawDistinctStreams) {
  transport::ChaosInjector s0(geo_config(50), /*self=*/0);
  transport::ChaosInjector s1(geo_config(50), /*self=*/1);
  std::vector<sim::Tick> a, b;
  for (int i = 0; i < 32; ++i) {
    a.push_back(s0.decide(i, 2).extra_delay - s0.geo_base_delay_us(2));
    b.push_back(s1.decide(i, 2).extra_delay - s1.geo_base_delay_us(2));
  }
  EXPECT_NE(a, b);
}

TEST(ChaosGeo, RejectsUncoveredReplicas) {
  transport::ChaosConfig config = geo_config(0);
  EXPECT_THROW(transport::ChaosInjector(config, /*self=*/3), std::invalid_argument);
  transport::ChaosInjector inj(config, /*self=*/0);
  EXPECT_THROW((void)inj.geo_base_delay_us(3), std::invalid_argument);
}

TEST(ChaosInjector, RejectsDelayRateWithoutBound) {
  transport::ChaosConfig config;
  config.delay_rate = 0.5;
  config.delay_max_us = 0;  // would silently disable the delay stage
  EXPECT_THROW(transport::ChaosInjector(config, 0), std::invalid_argument);
  config.delay_max_us = 10;
  EXPECT_NO_THROW(transport::ChaosInjector(config, 0));
}

}  // namespace
}  // namespace twostep::geo
