// Unit tests for the simulated network: latency models (incl. the paper's
// Definition 2 round synchrony and the DLS partial-synchrony bound), crash
// semantics, tracing and interception.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "geo/latency_matrix.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace twostep::net {
namespace {

using consensus::ProcessId;

TEST(SynchronousRounds, DeliversAtNextRoundBoundary) {
  SynchronousRounds m{100};
  util::Rng rng{1};
  EXPECT_EQ(m.delivery_time(0, 0, 1, rng), 100);
  EXPECT_EQ(m.delivery_time(99, 0, 1, rng), 100);
  EXPECT_EQ(m.delivery_time(100, 0, 1, rng), 200);
  EXPECT_EQ(m.delivery_time(150, 0, 1, rng), 200);
  EXPECT_EQ(m.delta(), 100);
}

TEST(SynchronousRounds, RejectsNonPositiveDelta) {
  EXPECT_THROW(SynchronousRounds{0}, std::invalid_argument);
}

TEST(FixedDelay, ConstantDelay) {
  FixedDelay m{7};
  util::Rng rng{1};
  EXPECT_EQ(m.delivery_time(10, 0, 1, rng), 17);
  EXPECT_EQ(m.delta(), 7);
}

TEST(FixedDelay, DelayAboveDeltaRejected) {
  EXPECT_THROW(FixedDelay(10, 5), std::invalid_argument);
}

TEST(PartialSynchrony, RespectsDlsBound) {
  // Every message sent at time t must arrive by max(t, GST) + delta.
  PartialSynchrony m{/*gst=*/1000, /*delta=*/50, /*chaos_max=*/10000};
  util::Rng rng{42};
  for (sim::Tick t : {0, 100, 900, 999}) {
    for (int i = 0; i < 200; ++i) {
      const sim::Tick d = m.delivery_time(t, 0, 1, rng);
      EXPECT_GT(d, t);
      EXPECT_LE(d, 1000 + 50);
    }
  }
}

TEST(PartialSynchrony, FastAfterGst) {
  PartialSynchrony m{1000, 50, 10000};
  util::Rng rng{42};
  for (int i = 0; i < 200; ++i) {
    const sim::Tick d = m.delivery_time(2000, 0, 1, rng);
    EXPECT_GT(d, 2000);
    EXPECT_LE(d, 2050);
  }
}

/// The nine-region table without jitter (jitter_us 0).
geo::LatencyMatrix nine_regions_no_jitter() {
  const geo::LatencyMatrix nine = geo::LatencyMatrix::nine_regions();
  std::vector<std::vector<std::int64_t>> cells(nine.size(), std::vector<std::int64_t>(nine.size()));
  for (int i = 0; i < static_cast<int>(nine.size()); ++i)
    for (int j = 0; j < static_cast<int>(nine.size()); ++j)
      cells[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = nine.one_way_us(i, j);
  return geo::LatencyMatrix(nine.regions(), std::move(cells));
}

TEST(WanMatrix, NineRegionsIsConsistent) {
  const geo::LatencyMatrix nine = nine_regions_no_jitter();
  const WanMatrix m{nine, geo::round_robin_placement(9, nine)};
  EXPECT_EQ(m.sites(), 9);
  util::Rng rng{1};
  // us-east <-> us-west is ~35ms one way.
  EXPECT_EQ(m.delivery_time(0, 0, 1, rng), 35);
  // delta is the worst link.
  EXPECT_EQ(m.delta(), 160);
}

TEST(WanMatrix, JitterBounded) {
  const geo::LatencyMatrix two({"a", "b"}, {{0, 35'000}, {35'000, 0}}, 5'000);
  const WanMatrix m{two, {0, 1}};
  util::Rng rng{7};
  for (int i = 0; i < 100; ++i) {
    const sim::Tick d = m.delivery_time(0, 0, 1, rng);
    EXPECT_GE(d, 35);
    EXPECT_LE(d, 40);
  }
  EXPECT_EQ(m.delta(), 40);
}

TEST(WanMatrix, RestrictSelectsSubmatrix) {
  // The placement picks the sites: us-east, eu-west, tokyo, and a second
  // process in us-east (more processes than regions wrap around).
  const WanMatrix sub{nine_regions_no_jitter(), {0, 2, 4, 0}};
  EXPECT_EQ(sub.sites(), 4);
  util::Rng rng{1};
  EXPECT_EQ(sub.delivery_time(0, 0, 1, rng), 38);   // use -> euw
  EXPECT_EQ(sub.delivery_time(0, 1, 2, rng), 105);  // euw -> jpn
  EXPECT_EQ(sub.delivery_time(0, 3, 0, rng), 1);    // same region: the one-tick floor
  EXPECT_EQ(sub.delivery_time(0, 3, 2, rng), 75);   // use -> jpn
}

TEST(WanMatrix, RejectsBadMatrices) {
  // A malformed table never reaches the simulator: the matrix it is built
  // from validates itself.  A placement outside the matrix and a site
  // outside the placement throw.
  EXPECT_THROW(geo::LatencyMatrix({"a", "b"}, {{0, 1}}), std::invalid_argument);
  const geo::LatencyMatrix two({"a", "b"}, {{0, 1000}, {1000, 0}});
  EXPECT_THROW(WanMatrix(two, {0, 2}), std::out_of_range);
  const WanMatrix m{two, {0, 1}};
  util::Rng rng{1};
  EXPECT_THROW((void)m.delivery_time(0, 0, 2, rng), std::out_of_range);
  EXPECT_THROW((void)m.delivery_time(0, -1, 0, rng), std::out_of_range);
}

// ---- Network ----

using Net = Network<std::string>;

std::unique_ptr<LatencyModel> fixed(sim::Tick d) { return std::make_unique<FixedDelay>(d); }

TEST(Network, DeliversToHandler) {
  sim::Simulator sim;
  Net net{sim, fixed(10), 3};
  std::string got;
  ProcessId got_from = -1;
  net.set_handler(1, [&](ProcessId from, const std::string& m) {
    got = m;
    got_from = from;
  });
  net.send(0, 1, "hello");
  sim.run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(got_from, 0);
  EXPECT_EQ(sim.now(), 10);
}

TEST(Network, SelfSendGoesThroughTheLatencyModel) {
  // Definition 2 semantics: self-addressed messages are messages.
  sim::Simulator sim;
  Net net{sim, fixed(10), 2};
  sim::Tick when = -1;
  net.set_handler(0, [&](ProcessId, const std::string&) { when = sim.now(); });
  net.send(0, 0, "x");
  sim.run();
  EXPECT_EQ(when, 10);
}

TEST(Network, CrashedSenderDropsMessage) {
  sim::Simulator sim;
  Net net{sim, fixed(10), 2};
  bool delivered = false;
  net.set_handler(1, [&](ProcessId, const std::string&) { delivered = true; });
  net.crash(0);
  net.send(0, 1, "x");
  sim.run();
  EXPECT_FALSE(delivered);
}

TEST(Network, CrashedReceiverDropsMessage) {
  sim::Simulator sim;
  Net net{sim, fixed(10), 2};
  bool delivered = false;
  net.set_handler(1, [&](ProcessId, const std::string&) { delivered = true; });
  net.send(0, 1, "x");
  net.crash(1);
  sim.run();
  EXPECT_FALSE(delivered);
}

TEST(Network, CrashAfterSendStillDelivers) {
  // Reliable links: a message handed to the network before the sender's
  // crash is delivered (the paper's runs rely on this: a process decides,
  // sends, and crashes).
  sim::Simulator sim;
  Net net{sim, fixed(10), 2};
  bool delivered = false;
  net.set_handler(1, [&](ProcessId, const std::string&) { delivered = true; });
  net.send(0, 1, "x");
  net.crash(0);
  sim.run();
  EXPECT_TRUE(delivered);
}

TEST(Network, CrashAtScheduledTime) {
  sim::Simulator sim;
  Net net{sim, fixed(10), 2};
  int delivered = 0;
  net.set_handler(1, [&](ProcessId, const std::string&) { ++delivered; });
  net.crash_at(5, 1);
  net.send(0, 1, "early");  // delivery at 10, after crash at 5
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_TRUE(net.crashed(1));
  EXPECT_EQ(net.crashed_count(), 1);
}

TEST(Network, CountsSentAndDelivered) {
  sim::Simulator sim;
  Net net{sim, fixed(10), 3};
  net.set_handler(1, [](ProcessId, const std::string&) {});
  net.set_handler(2, [](ProcessId, const std::string&) {});
  net.crash(2);
  net.send(0, 1, "a");
  net.send(0, 2, "b");
  sim.run();
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.messages_delivered(), 1u);
}

NetworkConfig traced_config(obs::RunTracer& tracer) {
  NetworkConfig config;
  config.probe.tracer = &tracer;
  return config;
}

TEST(Network, TraceRecordsSendAndDelivery) {
  sim::Simulator sim;
  obs::RunTracer tracer;
  Net net{sim, fixed(10), 2, 1, traced_config(tracer)};
  net.set_handler(1, [](ProcessId, const std::string&) {});
  net.send(0, 1, "traced");
  sim.run();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kMessageSend);
  EXPECT_EQ(events[0].at, 0);
  EXPECT_EQ(events[0].process, 0);
  EXPECT_EQ(events[0].peer, 1);
  EXPECT_EQ(events[1].kind, obs::EventKind::kMessageDeliver);
  EXPECT_EQ(events[1].at, 10);
  EXPECT_EQ(events[1].process, 1);
  EXPECT_EQ(events[1].peer, 0);
  EXPECT_EQ(events[1].detail, events[0].detail);  // the same message
  EXPECT_STREQ(events[1].label, "msg");
}

TEST(Network, TraceMarksUndeliveredWithDropReason) {
  sim::Simulator sim;
  obs::RunTracer tracer;
  Net net{sim, fixed(10), 2, 1, traced_config(tracer)};
  net.set_handler(1, [](ProcessId, const std::string&) {});
  net.send(0, 1, "lost");
  net.crash(1);
  sim.run();
  // The recipient crashed: the message ends in a drop at its delivery time,
  // not conflated with "still in flight".
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, obs::EventKind::kMessageDrop);
  EXPECT_EQ(events[1].at, 10);
  EXPECT_EQ(events[1].process, 0);  // on the sender, like every drop
  EXPECT_EQ(events[1].peer, 1);
  EXPECT_EQ(events[1].detail, events[0].detail);
  EXPECT_EQ(net.messages_delivered(), 0u);
}

TEST(Network, TraceMarksInFlightDistinctFromCrashed) {
  sim::Simulator sim;
  obs::RunTracer tracer;
  Net net{sim, fixed(10), 2, 1, traced_config(tracer)};
  net.set_handler(1, [](ProcessId, const std::string&) {});
  net.send(0, 1, "in-flight");
  // Run no events: the message is sent but the run ends before delivery,
  // so it has a send and neither a delivery nor a drop.
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kMessageSend);
}

// A FaultPlan delay rule can pin an absolute delivery time per message,
// overriding the latency model (the adversarial-scheduling hook).
TEST(Network, DelayRuleOverridesDelivery) {
  sim::Simulator sim;
  auto plan = std::make_shared<faults::FaultPlan>();
  plan->delay_rule(faults::typed_delay_rule<std::string>(
      [](sim::Tick, ProcessId, ProcessId, const std::string& m) -> std::optional<sim::Tick> {
        if (m == "slow") return 500;
        return std::nullopt;
      }));
  net::NetworkConfig config;
  config.faults = std::move(plan);
  Net net{sim, fixed(10), 2, 1, std::move(config)};
  sim::Tick when = -1;
  net.set_handler(1, [&](ProcessId, const std::string&) { when = sim.now(); });
  net.send(0, 1, "slow");
  sim.run();
  EXPECT_EQ(when, 500);
  net.send(0, 1, "normal");
  sim.run();
  EXPECT_EQ(when, 510);
}

TEST(Network, RejectsBadProcessIds) {
  sim::Simulator sim;
  Net net{sim, fixed(10), 2};
  EXPECT_THROW(net.send(0, 5, "x"), std::out_of_range);
  EXPECT_THROW(net.crash(-1), std::out_of_range);
}

}  // namespace
}  // namespace twostep::net
