// Tests for the run harnesses themselves: Cluster timer/crash semantics,
// scheduled proposals, the ScenarioRunner's Ω oracle, and priority_order.
#include <gtest/gtest.h>

#include <string>

#include "support.hpp"

namespace twostep::consensus {
namespace {

using core::Mode;
using core::TwoStepProcess;
using testing::RunSpec;

constexpr sim::Tick kDelta = 100;

/// Whether `tracer` holds a send of a `label` message from `from`
/// (any label when null).
bool sent(const obs::RunTracer& tracer, ProcessId from, const char* label = nullptr) {
  for (const obs::TraceEvent& e : tracer.events())
    if (e.kind == obs::EventKind::kMessageSend && e.process == from &&
        (!label || std::string(e.label) == label))
      return true;
  return false;
}

TEST(Cluster, TimersDoNotFireForCrashedProcesses) {
  // A crashed process's armed ballot timer must not start ballots: after a
  // crash at time 0, the network shows zero messages from it.
  const SystemConfig cfg{3, 1, 1};
  obs::RunTracer tracer;
  auto r = RunSpec(cfg).delta(kDelta).probe({&tracer, nullptr}).core(Mode::kTask);
  r->cluster().start_all();  // everyone arms the 2Δ timer
  r->cluster().crash(0);     // p0 would be the Ω leader
  r->cluster().propose(1, Value{1});
  r->cluster().propose(2, Value{2});
  r->cluster().run();
  // p0 sent nothing; consensus still terminates via p1's ballots.
  EXPECT_TRUE(r->monitor().safe());
  EXPECT_TRUE(r->cluster().all_correct_decided());
  EXPECT_FALSE(sent(tracer, 0));
  EXPECT_TRUE(sent(tracer, 1));
}

TEST(Cluster, ProposeAtSchedulesInVirtualTime) {
  const SystemConfig cfg{3, 1, 1};
  auto r = RunSpec(cfg).delta(kDelta).core(Mode::kObject);
  r->cluster().start_all();
  // Mid-round proposal, still before the 2Δ new-ballot timer: the Propose
  // lands at the next round boundary and the fast path completes at 2Δ.
  r->cluster().propose_at(kDelta / 2, 1, Value{9});
  r->cluster().run();
  const auto t = r->monitor().decision_time(1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 2 * kDelta);
}

TEST(Cluster, RunUntilAllDecidedStopsEarly) {
  const SystemConfig cfg{5, 2, 1};
  auto r = RunSpec(cfg).delta(kDelta).core(Mode::kTask);
  r->cluster().start_all();
  for (ProcessId p = 0; p < cfg.n; ++p) r->cluster().propose(p, Value{p + 1});
  EXPECT_TRUE(r->cluster().run_until_all_decided(100 * kDelta));
  EXPECT_LE(r->cluster().now(), 10 * kDelta);
}

TEST(Cluster, CrashIsVisibleToOmegaOracle) {
  // After p0 crashes, the ScenarioRunner's oracle elects p1, and p1's
  // ballot appears in the trace (1A messages from p1).
  const SystemConfig cfg{3, 1, 1};
  obs::RunTracer tracer;
  auto r = RunSpec(cfg).delta(kDelta).probe({&tracer, nullptr}).core(Mode::kObject);
  r->cluster().crash(0);
  r->cluster().start_all();
  r->cluster().propose(1, Value{5});
  r->cluster().propose(2, Value{6});  // conflicting: needs the slow path
  r->cluster().run();
  EXPECT_TRUE(r->cluster().all_correct_decided());
  EXPECT_TRUE(sent(tracer, 1, "1A"));
}

TEST(Cluster, MonitorRecordsProposalsOfCrashedProcesses) {
  // Crashed processes' inputs belong to the initial configuration even
  // though they take no step (Definition 2).
  const SystemConfig cfg{3, 1, 1};
  obs::RunTracer tracer;
  auto r = RunSpec(cfg).delta(kDelta).probe({&tracer, nullptr}).core(Mode::kTask);
  r->cluster().crash(2);
  r->cluster().propose(2, Value{9});
  EXPECT_EQ(r->monitor().proposals().at(2), Value{9});
  for (ProcessId p = 0; p < cfg.n; ++p) EXPECT_FALSE(sent(tracer, p));
}

TEST(PriorityOrder, PutsWitnessFirstKeepsOthersInIdOrder) {
  std::map<ProcessId, Value> initial{{0, Value{1}}, {1, Value{2}}, {2, Value{3}}};
  const auto order = priority_order(initial, 1);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].p, 1);
  EXPECT_EQ(order[1].p, 0);
  EXPECT_EQ(order[2].p, 2);
}

TEST(PriorityOrder, WitnessWithoutProposalIsSkipped) {
  std::map<ProcessId, Value> initial{{0, Value{1}}};
  const auto order = priority_order(initial, 5);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0].p, 0);
}

TEST(ScenarioRunner, HorizonLimitsTheRun) {
  const SystemConfig cfg{3, 1, 1};
  auto r = RunSpec(cfg).delta(kDelta).core(Mode::kTask);
  SyncScenario s;
  s.proposals = {{2, Value{9}}, {0, Value{1}}, {1, Value{2}}};
  s.horizon = 2 * kDelta;
  r->run(s);
  EXPECT_EQ(r->cluster().now(), 2 * kDelta);
  // The witness decided exactly at the horizon; stragglers have not.
  EXPECT_TRUE(r->monitor().has_decided(2));
  EXPECT_FALSE(r->monitor().has_decided(0));
}

TEST(ScenarioRunner, SeedChangesNothingUnderSynchronousRounds) {
  // Definition-2 runs are fully deterministic: the latency model ignores
  // the RNG, so two different seeds give identical decision times.
  for (const std::uint64_t seed : {1ull, 999ull}) {
    const SystemConfig cfg{5, 2, 1};
    auto r = std::make_unique<testing::CoreRunner>(
        cfg, std::make_unique<net::SynchronousRounds>(kDelta),
        [] {
          core::Options o;
          o.mode = Mode::kTask;
          o.delta = kDelta;
          return o;
        }(),
        seed);
    SyncScenario s;
    s.proposals = {{4, Value{50}}, {0, Value{10}}, {1, Value{20}}, {2, Value{30}},
                   {3, Value{40}}};
    r->run(s);
    EXPECT_EQ(r->monitor().decision_time(4), 2 * kDelta) << "seed " << seed;
  }
}

TEST(Cluster, RejectsNullFactory) {
  const SystemConfig cfg{3, 1, 1};
  using C = Cluster<TwoStepProcess>;
  EXPECT_THROW(C(cfg, std::make_unique<net::SynchronousRounds>(kDelta), nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace twostep::consensus
