// Tests for the faults subsystem: FaultPlan rules and determinism, the
// network's fault-injection stage and DropReason tracing, crash-restart
// schedules through the Cluster, and end-to-end protocol safety under
// chaos (the acceptance configuration: 20% drop + duplication + a healed
// partition, with the ReliableChannel restoring reliable links).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "consensus/scenario.hpp"
#include "core/messages.hpp"
#include "core/two_step.hpp"
#include "faults/fault_plan.hpp"
#include "modelcheck/explorer.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "support.hpp"
#include "util/rng.hpp"

namespace twostep {
namespace {

using consensus::ProcessId;
using consensus::SystemConfig;
using consensus::Value;
using faults::DropReason;
using faults::FaultPlan;

// ---- FaultPlan rules ----

TEST(FaultPlan, RejectsBadRates) {
  FaultPlan plan;
  EXPECT_THROW(plan.drop(1.5), std::invalid_argument);
  EXPECT_THROW(plan.drop(-0.1), std::invalid_argument);
  EXPECT_THROW(plan.duplicate(0.5, 0), std::invalid_argument);
  EXPECT_THROW(plan.reorder(0.5, 0), std::invalid_argument);
  EXPECT_THROW(plan.drop_if(nullptr), std::invalid_argument);
  EXPECT_THROW(plan.partition_cut({}, 0, 100), std::invalid_argument);
}

TEST(FaultPlan, SameSeedSameDecisionSequence) {
  const auto decide_sequence = [](std::uint64_t seed) {
    FaultPlan plan{seed};
    plan.drop(0.3).duplicate(0.2, 2).reorder(0.25, 40);
    std::ostringstream log;
    for (int i = 0; i < 200; ++i) {
      const auto d = plan.on_send(i, i % 3, (i + 1) % 3, nullptr);
      log << static_cast<int>(d.drop) << ':' << d.copies << ':' << d.extra_delay << ';';
    }
    return log.str();
  };
  EXPECT_EQ(decide_sequence(7), decide_sequence(7));
  EXPECT_NE(decide_sequence(7), decide_sequence(8));
}

TEST(FaultPlan, ProbabilisticDropRoughlyMatchesRate) {
  FaultPlan plan{11};
  plan.drop(0.2);
  int dropped = 0;
  for (int i = 0; i < 10000; ++i)
    if (plan.on_send(i, 0, 1, nullptr).dropped()) ++dropped;
  EXPECT_GT(dropped, 1600);
  EXPECT_LT(dropped, 2400);
  EXPECT_EQ(plan.injected_drops(), static_cast<std::uint64_t>(dropped));
}

TEST(FaultPlan, LinkPartitionSeversBothDirectionsUntilHeal) {
  FaultPlan plan;
  plan.partition_link(0, 1, 100, 200);
  EXPECT_FALSE(plan.partitioned(99, 0, 1));
  EXPECT_TRUE(plan.partitioned(100, 0, 1));
  EXPECT_TRUE(plan.partitioned(150, 1, 0));
  EXPECT_FALSE(plan.partitioned(200, 0, 1));  // healed
  EXPECT_FALSE(plan.partitioned(150, 0, 2));  // other links unaffected
  EXPECT_EQ(plan.on_send(150, 0, 1, nullptr).drop, DropReason::kPartition);
}

TEST(FaultPlan, UnhealedPartitionNeverHeals) {
  FaultPlan plan;
  plan.partition_link(0, 1, 0, -1);
  EXPECT_TRUE(plan.partitioned(1'000'000, 0, 1));
}

TEST(FaultPlan, CutPartitionSeversCrossTrafficOnly) {
  FaultPlan plan;
  plan.partition_cut({0, 1}, 0, -1);
  EXPECT_TRUE(plan.partitioned(0, 0, 2));
  EXPECT_TRUE(plan.partitioned(0, 3, 1));
  EXPECT_FALSE(plan.partitioned(0, 0, 1));  // inside the island
  EXPECT_FALSE(plan.partitioned(0, 2, 3));  // inside the complement
}

TEST(FaultPlan, PredicateRulesAreDeterministic) {
  FaultPlan plan;
  plan.drop_if([](sim::Tick, ProcessId from, ProcessId) { return from == 2; });
  plan.duplicate_if([](sim::Tick now, ProcessId, ProcessId) { return now >= 50; }, 2);
  EXPECT_EQ(plan.on_send(0, 2, 0, nullptr).drop, DropReason::kInjected);
  EXPECT_EQ(plan.on_send(0, 1, 0, nullptr).copies, 1);
  EXPECT_EQ(plan.on_send(60, 1, 0, nullptr).copies, 3);
  EXPECT_EQ(plan.injected_drops(), 1u);
  EXPECT_EQ(plan.injected_duplicates(), 2u);
}

TEST(FaultPlan, CrashScheduleIsRecorded) {
  FaultPlan plan;
  plan.crash_at(100, 2).restart_at(300, 2);
  ASSERT_EQ(plan.crash_schedule().size(), 2u);
  EXPECT_EQ(plan.crash_schedule()[0].when, 100);
  EXPECT_FALSE(plan.crash_schedule()[0].restart);
  EXPECT_EQ(plan.crash_schedule()[1].when, 300);
  EXPECT_TRUE(plan.crash_schedule()[1].restart);
}

TEST(FaultPlan, TypedDelayRuleIgnoresControlSignals) {
  FaultPlan plan;
  plan.delay_rule(faults::typed_delay_rule<std::string>(
      [](sim::Tick, ProcessId, ProcessId, const std::string&) -> std::optional<sim::Tick> {
        return 777;
      }));
  const std::string payload = "m";
  EXPECT_EQ(plan.on_send(0, 0, 1, &payload).forced_time, 777);
  // Null payload = control signal (reliable-channel ack): defer to the model.
  EXPECT_FALSE(plan.on_send(0, 0, 1, nullptr).forced_time.has_value());
}

TEST(FaultPlan, DropReasonNamesAreStable) {
  EXPECT_STREQ(faults::drop_event_label(DropReason::kNone), "drop.none");
  EXPECT_STREQ(faults::drop_event_label(DropReason::kInjected), "drop.injected");
  EXPECT_STREQ(faults::drop_event_label(DropReason::kPartition), "drop.partition");
}

// ---- the network's fault stage ----

using Net = net::Network<std::string>;

net::NetworkConfig chaos_config(std::shared_ptr<FaultPlan> plan, obs::RunTracer* tracer) {
  net::NetworkConfig config;
  config.faults = std::move(plan);
  config.probe.tracer = tracer;
  return config;
}

/// The tracer's message drops and deliveries, in order.
std::vector<obs::TraceEvent> message_fates(const obs::RunTracer& tracer) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : tracer.events())
    if (e.kind == obs::EventKind::kMessageDrop || e.kind == obs::EventKind::kMessageDeliver)
      out.push_back(e);
  return out;
}

TEST(NetworkFaults, InjectedDropIsTracedWithReason) {
  sim::Simulator sim;
  auto plan = std::make_shared<FaultPlan>();
  plan->drop_if([](sim::Tick, ProcessId, ProcessId) { return true; });
  obs::RunTracer tracer;
  Net net{sim, std::make_unique<net::FixedDelay>(10), 2, 1, chaos_config(plan, &tracer)};
  int got = 0;
  net.set_handler(1, [&](ProcessId, const std::string&) { ++got; });
  net.send(0, 1, "doomed");
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.messages_delivered(), 0u);
  const auto fates = message_fates(tracer);
  ASSERT_EQ(fates.size(), 1u);  // dropped, never delivered
  EXPECT_EQ(fates[0].kind, obs::EventKind::kMessageDrop);
  EXPECT_STREQ(fates[0].label, faults::drop_event_label(DropReason::kInjected));
  EXPECT_EQ(fates[0].at, 0);
}

TEST(NetworkFaults, PartitionDropUsesPartitionReason) {
  sim::Simulator sim;
  auto plan = std::make_shared<FaultPlan>();
  plan->partition_link(0, 1, 0, -1);
  obs::RunTracer tracer;
  Net net{sim, std::make_unique<net::FixedDelay>(10), 3, 1, chaos_config(plan, &tracer)};
  net.set_handler(1, [](ProcessId, const std::string&) {});
  net.set_handler(2, [](ProcessId, const std::string&) {});
  net.send(0, 1, "cut");
  net.send(0, 2, "fine");
  sim.run();
  const auto fates = message_fates(tracer);
  ASSERT_EQ(fates.size(), 2u);
  EXPECT_EQ(fates[0].kind, obs::EventKind::kMessageDrop);
  EXPECT_STREQ(fates[0].label, faults::drop_event_label(DropReason::kPartition));
  EXPECT_EQ(fates[0].peer, 1);
  EXPECT_EQ(fates[1].kind, obs::EventKind::kMessageDeliver);
  EXPECT_EQ(fates[1].process, 2);
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(NetworkFaults, DuplicationDeliversEveryCopy) {
  sim::Simulator sim;
  auto plan = std::make_shared<FaultPlan>();
  plan->duplicate_if([](sim::Tick, ProcessId, ProcessId) { return true; }, 2);
  Net net{sim, std::make_unique<net::FixedDelay>(10), 2, 1, chaos_config(plan, nullptr)};
  int got = 0;
  net.set_handler(1, [&](ProcessId, const std::string&) { ++got; });
  net.send(0, 1, "echo");
  sim.run();
  EXPECT_EQ(got, 3);  // original + 2 extra copies
  EXPECT_EQ(net.messages_delivered(), 3u);
  EXPECT_EQ(net.messages_sent(), 1u);  // one logical send
}

TEST(NetworkFaults, ProbeCountsInjectedFaults) {
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  auto plan = std::make_shared<FaultPlan>();
  plan->drop_if([](sim::Tick, ProcessId from, ProcessId) { return from == 0; });
  plan->duplicate_if([](sim::Tick, ProcessId from, ProcessId) { return from == 1; });
  net::NetworkConfig config = chaos_config(plan, nullptr);
  config.probe = obs::Probe{nullptr, &metrics};
  Net net{sim, std::make_unique<net::FixedDelay>(10), 2, 1, config};
  net.set_handler(0, [](ProcessId, const std::string&) {});
  net.set_handler(1, [](ProcessId, const std::string&) {});
  net.send(0, 1, "dropped");
  net.send(1, 0, "duplicated");
  sim.run();
  EXPECT_EQ(metrics.counter_value("faults.drops"), 1u);
  EXPECT_EQ(metrics.counter_value("faults.duplicates"), 1u);
  EXPECT_EQ(metrics.counter_value("net.dropped.msg"), 1u);
}

TEST(NetworkFaults, RestartAcceptsTrafficAgain) {
  sim::Simulator sim;
  Net net{sim, std::make_unique<net::FixedDelay>(10), 2};
  int got = 0;
  net.set_handler(1, [&](ProcessId, const std::string&) { ++got; });
  net.crash(1);
  net.send(0, 1, "lost");
  sim.run();
  EXPECT_EQ(got, 0);
  net.restart(1);
  net.send(0, 1, "received");
  sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_FALSE(net.crashed(1));
}

// ---- chaos determinism: byte-identical runs for a fixed seed ----

/// The chaos runs below record about 400 events (434 for seed 42), so this
/// leaves ample headroom: the fingerprint covers the whole run only if the
/// tracer evicts nothing.
constexpr std::size_t kChaosTraceCapacity = 4096;

std::string chaos_run_fingerprint(std::uint64_t seed) {
  obs::RunTracer tracer(kChaosTraceCapacity);
  const SystemConfig cfg{5, 2, 2};
  auto plan = std::make_shared<FaultPlan>(seed);
  plan->drop(0.2).duplicate(0.1).reorder(0.15, 120).partition_cut({0, 1}, 150, 500);
  auto r = testing::RunSpec(cfg)
               .delta(100)
               .seed(seed)
               .fault_plan(plan)
               .reliable()
               .probe({&tracer, nullptr})
               .core(core::Mode::kObject);
  r->cluster().start_all();
  for (ProcessId p = 0; p < cfg.n; ++p) r->cluster().propose(p, Value{100 + p});
  r->cluster().run();
  EXPECT_TRUE(r->monitor().safe());
  EXPECT_EQ(tracer.evicted(), 0u);
  std::ostringstream os;
  for (const obs::TraceEvent& e : tracer.events())
    os << obs::format_event(e) << " #" << e.detail << '\n';
  return os.str();
}

TEST(ChaosDeterminism, SameSeedByteIdenticalNetworkTrace) {
  const std::string first = chaos_run_fingerprint(42);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, chaos_run_fingerprint(42));
  EXPECT_NE(first, chaos_run_fingerprint(43));
}

// ---- crash-restart schedules through the Cluster ----

TEST(ChaosCluster, FaultPlanCrashRestartScheduleApplies) {
  const SystemConfig cfg{3, 1, 1};
  obs::RunTracer tracer;
  auto plan = std::make_shared<FaultPlan>();
  plan->crash_at(150, 2).restart_at(450, 2);
  auto r = testing::RunSpec(cfg)
               .delta(100)
               .probe(obs::Probe{&tracer, nullptr})
               .fault_plan(plan)
               .core(core::Mode::kTask);
  r->cluster().start_all();
  for (ProcessId p = 0; p < cfg.n; ++p) r->cluster().propose(p, Value{100 + p});
  r->cluster().run_until(200);
  EXPECT_TRUE(r->cluster().crashed(2));
  r->cluster().run();
  EXPECT_FALSE(r->cluster().crashed(2));
  EXPECT_TRUE(r->monitor().safe());

  bool saw_crash = false, saw_restart = false;
  for (const auto& e : tracer.events()) {
    saw_crash |= e.kind == obs::EventKind::kCrash && e.process == 2;
    saw_restart |= e.kind == obs::EventKind::kRestart && e.process == 2;
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_restart);
}

// ---- acceptance: every protocol is safe and live under chaos ----

std::shared_ptr<FaultPlan> acceptance_plan(std::uint64_t seed) {
  auto plan = std::make_shared<FaultPlan>(seed);
  plan->drop(0.2).duplicate(0.1).partition_cut({0, 1}, 150, 500);
  return plan;
}

template <typename Runner>
void expect_safe_and_live(Runner& r, int n, const char* what, std::uint64_t seed) {
  r.cluster().start_all();
  for (ProcessId p = 0; p < n; ++p) r.cluster().propose(p, Value{100 + p});
  r.cluster().run(2'000'000);
  EXPECT_TRUE(r.monitor().safe()) << what << " seed=" << seed << ": "
                                  << r.monitor().violations().front();
  for (ProcessId p = 0; p < n; ++p)
    EXPECT_TRUE(r.monitor().has_decided(p)) << what << " seed=" << seed << " p" << p;
}

TEST(ChaosSafety, CoreTaskSafeAndLiveUnderChaos) {
  const SystemConfig cfg{6, 2, 2};  // min_processes_task(e=2, f=2)
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto r = testing::RunSpec(cfg).delta(100).seed(seed).fault_plan(acceptance_plan(seed))
                 .reliable().core(core::Mode::kTask);
    expect_safe_and_live(*r, cfg.n, "core/task", seed);
  }
}

TEST(ChaosSafety, CoreObjectSafeAndLiveUnderChaos) {
  const SystemConfig cfg{5, 2, 2};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto r = testing::RunSpec(cfg).delta(100).seed(seed).fault_plan(acceptance_plan(seed))
                 .reliable().core(core::Mode::kObject);
    expect_safe_and_live(*r, cfg.n, "core/object", seed);
  }
}

TEST(ChaosSafety, PaxosSafeAndLiveUnderChaos) {
  const SystemConfig cfg{5, 2, 0};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto r = testing::RunSpec(cfg).delta(100).seed(seed).fault_plan(acceptance_plan(seed))
                 .reliable().paxos();
    expect_safe_and_live(*r, cfg.n, "paxos", seed);
  }
}

TEST(ChaosSafety, FastPaxosSafeAndLiveUnderChaos) {
  const SystemConfig cfg{7, 2, 2};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto r = testing::RunSpec(cfg).delta(100).seed(seed).fault_plan(acceptance_plan(seed))
                 .reliable().fastpaxos();
    expect_safe_and_live(*r, cfg.n, "fastpaxos", seed);
  }
}

// Without the reliable channel safety must still hold (the protocols may
// simply not terminate); run with a bounded horizon and check the monitor.
TEST(ChaosSafety, RawLossyLinksNeverViolateSafety) {
  const SystemConfig cfg{5, 2, 2};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto plan = acceptance_plan(seed);
    auto r = testing::RunSpec(cfg).delta(100).seed(seed).fault_plan(plan).core(
        core::Mode::kObject);
    r->cluster().start_all();
    for (ProcessId p = 0; p < cfg.n; ++p) r->cluster().propose(p, Value{100 + p});
    r->cluster().run(500'000);
    EXPECT_TRUE(r->monitor().safe()) << "seed=" << seed;
  }
}

// ---- fuzzing with fault budgets: jobs-independent and replayable ----
// (Suite name intentionally matches the CI TSan exclusion regex — the
// jobs=8 case is genuinely multi-threaded.)

modelcheck::Scenario<core::TwoStepProcess> chaos_fuzz_scenario() {
  const SystemConfig cfg{3, 1, 1};
  modelcheck::Scenario<core::TwoStepProcess> s;
  s.config = cfg;
  s.factory = [cfg](consensus::Env<core::Message>& env, ProcessId) {
    core::Options o;
    o.mode = core::Mode::kTask;
    o.delta = 100;
    o.leader_of = [] { return ProcessId{0}; };
    return std::make_unique<core::TwoStepProcess>(env, cfg, o);
  };
  s.setup = [](modelcheck::DirectDrive<core::TwoStepProcess>& d) {
    d.start_all();
    d.propose(0, Value{1});
    d.propose(1, Value{2});
    d.propose(2, Value{3});
  };
  s.faults.drops = 2;
  s.faults.duplicates = 1;
  s.faults.partitions = 1;
  s.max_depth = 40;
  return s;
}

TEST(ExplorerChaosFuzz, FaultBudgetsFindNoViolationAtTheBound) {
  const auto result =
      modelcheck::Explorer<core::TwoStepProcess>::fuzz(chaos_fuzz_scenario(), 2000, 99, 250);
  EXPECT_FALSE(result.violation) << result.what;
  EXPECT_EQ(result.traces, 2000);
}

TEST(ExplorerChaosFuzz, ResultIsIdenticalForAnyJobCount) {
  const auto fingerprint = [](int jobs) {
    const auto r = modelcheck::Explorer<core::TwoStepProcess>::fuzz(chaos_fuzz_scenario(),
                                                                    1000, 7, 250, jobs);
    std::ostringstream os;
    os << r.traces << '|' << r.steps << '|' << r.violation << '|' << r.what << '|';
    for (int a : r.schedule) os << a << ',';
    return os.str();
  };
  const std::string serial = fingerprint(1);
  EXPECT_EQ(serial, fingerprint(4));
  EXPECT_EQ(serial, fingerprint(8));
}

// ---- the RunSpec builder covers the old canned-factory defaults ----

TEST(RunSpecBuilder, DefaultCoreRunSucceeds) {
  const SystemConfig cfg{3, 1, 1};
  auto r = harness::RunSpec(cfg).delta(100).core(core::Mode::kTask);
  consensus::SyncScenario s;
  for (int p = 0; p < cfg.n; ++p) s.proposals.push_back({p, Value{100 + p}});
  r->run(s);
  EXPECT_TRUE(r->monitor().safe());
  EXPECT_TRUE(r->monitor().undecided_correct(cfg.n).empty());
}

}  // namespace
}  // namespace twostep
