// Live-vs-simulated conformance for node::Runtime.
//
// The table-driven suite runs the same seeded proposal schedule twice —
// once through harness::RunSpec (discrete-event simulator) and once on a
// real loopback TCP cluster — and asserts the worlds agree.  Rows whose
// outcome is schedule-independent (lone proposer, unanimous proposals)
// must produce *identical* decisions; racy rows (distinct values arriving
// in wall-clock order) must satisfy agreement + validity in both worlds.
//
// Everything here also runs under TSan in CI: it is the check that the
// runtime's threading discipline (loop-thread-only protocol access,
// mutex-guarded snapshots) actually holds.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "codec/codec.hpp"
#include "consensus/cluster.hpp"
#include "consensus/types.hpp"
#include "core/two_step.hpp"
#include "epaxos/host.hpp"
#include "harness/run_spec.hpp"
#include "net/latency.hpp"
#include "node/client.hpp"
#include "node/loadgen.hpp"
#include "node/local_cluster.hpp"
#include "node/runtime.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "rsm/rsm.hpp"
#include "transport/wire.hpp"

namespace twostep {
namespace {

using consensus::Value;

/// Live clusters run with a generous Δ so the fast path has comfortably
/// more than one round-trip of slack before a slow ballot could start.
constexpr sim::Tick kLiveDeltaUs = 100'000;  // 100 ms

struct Proposal {
  consensus::ProcessId p;
  std::int64_t v;
};

std::vector<std::int64_t> run_sim_core(consensus::SystemConfig config, core::Mode mode,
                                       const std::vector<Proposal>& proposals) {
  auto runner = harness::RunSpec(config).delta(100).seed(1).core(mode);
  consensus::SyncScenario scenario;
  for (const Proposal& prop : proposals) scenario.proposals.push_back({prop.p, Value{prop.v}});
  runner->run(scenario);
  std::vector<std::int64_t> decided;
  for (consensus::ProcessId p = 0; p < config.n; ++p)
    decided.push_back(runner->cluster().process(p).decided_value().get());
  return decided;
}

std::vector<std::int64_t> run_live_core(consensus::SystemConfig config, core::Mode mode,
                                        const std::vector<Proposal>& proposals) {
  node::LocalCluster<core::TwoStepProcess> cluster(
      config.n, [&](consensus::Env<core::Message>& env, obs::MetricsRegistry& reg,
                    consensus::ProcessId /*self*/) {
        core::Options options;
        options.mode = mode;
        options.delta = kLiveDeltaUs;
        options.leader_of = [] { return consensus::ProcessId{0}; };  // Ω, no crashes
        options.probe.metrics = &reg;
        return std::make_unique<core::TwoStepProcess>(env, config, options);
      });
  EXPECT_TRUE(cluster.wait_for_mesh());
  for (const Proposal& prop : proposals) cluster.node(prop.p).propose(Value{prop.v});

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    bool all = true;
    for (int p = 0; p < config.n; ++p)
      if (!cluster.node(p).has_decided()) all = false;
    if (all) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "live cluster did not decide in time";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::vector<std::int64_t> decided;
  for (int p = 0; p < config.n; ++p) {
    const Value v = cluster.node(p).decided_value();
    decided.push_back(v.is_bottom() ? -1 : v.get());
  }
  cluster.stop();
  return decided;
}

struct ConformanceRow {
  const char* name;
  consensus::SystemConfig config;
  core::Mode mode;
  std::vector<Proposal> proposals;
  /// Exact live == sim equality (schedule-independent outcome) vs
  /// agreement + validity in each world separately.
  bool deterministic;
};

std::vector<ConformanceRow> conformance_rows() {
  return {
      {"task_lone_proposer_n4", consensus::SystemConfig(4, 1, 1), core::Mode::kTask,
       {{0, 7}}, true},
      {"object_lone_proposer_n3", consensus::SystemConfig(3, 1, 1), core::Mode::kObject,
       {{0, 11}}, true},
      {"task_unanimous_n5", consensus::SystemConfig(5, 2, 1), core::Mode::kTask,
       {{0, 42}, {1, 42}, {2, 42}, {3, 42}, {4, 42}}, true},
      {"object_unanimous_n3", consensus::SystemConfig(3, 1, 1), core::Mode::kObject,
       {{0, 5}, {1, 5}, {2, 5}}, true},
      {"task_conflicting_n4", consensus::SystemConfig(4, 1, 1), core::Mode::kTask,
       {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, false},
      {"object_conflicting_n5", consensus::SystemConfig(5, 1, 1), core::Mode::kObject,
       {{0, 9}, {2, 8}}, false},
  };
}

TEST(LiveConformance, LiveAndSimulatedEnvsAgreeOnTheSameSchedule) {
  for (const ConformanceRow& row : conformance_rows()) {
    SCOPED_TRACE(row.name);
    const auto sim_decided = run_sim_core(row.config, row.mode, row.proposals);
    const auto live_decided = run_live_core(row.config, row.mode, row.proposals);
    ASSERT_EQ(sim_decided.size(), live_decided.size());

    std::set<std::int64_t> proposed;
    for (const Proposal& prop : row.proposals) proposed.insert(prop.v);

    // Agreement + validity hold in both worlds, always.
    for (std::size_t p = 1; p < sim_decided.size(); ++p) {
      EXPECT_EQ(sim_decided[p], sim_decided[0]);
      EXPECT_EQ(live_decided[p], live_decided[0]);
    }
    EXPECT_TRUE(proposed.contains(sim_decided[0]));
    EXPECT_TRUE(proposed.contains(live_decided[0]));

    // Schedule-independent rows: the two worlds decide identically.
    if (row.deterministic) {
      EXPECT_EQ(live_decided, sim_decided);
    }
  }
}

/// Raises a flag when its process casts a fast (ballot 0) vote, i.e. once
/// it has received a Propose.  Runs on the process's loop thread.
class FastVoteSink final : public obs::TraceSink {
 public:
  void on_event(const obs::TraceEvent& event) override {
    if (std::strcmp(event.label, "fast_vote") == 0) voted.store(true);
  }
  std::atomic<bool> voted{false};
};

TEST(LiveConformance, FastPathSurvivesTheRealNetwork) {
  // Unanimous proposals on a 5-replica loopback cluster must produce at
  // least one genuine fast (two-step) decision — the acceptance criterion
  // that the paper's fast path is observable over real sockets, not just
  // under the simulator's lockstep rounds.  p0 proposes first and the
  // others propose only after they voted for p0's Propose: proposing all
  // at once lets each replica vote for whichever Propose reaches it first,
  // and a split below n - e votes leaves every decision to the slow path.
  const consensus::SystemConfig config(5, 1, 1);
  std::vector<obs::RunTracer> tracers(config.n, obs::RunTracer(16));
  std::vector<FastVoteSink> sinks(config.n);
  for (int p = 0; p < config.n; ++p) tracers[p].set_sink(&sinks[p]);
  node::LocalCluster<core::TwoStepProcess> cluster(
      config.n, [&](consensus::Env<core::Message>& env, obs::MetricsRegistry& reg,
                    consensus::ProcessId self) {
        core::Options options;
        options.mode = core::Mode::kTask;
        options.delta = kLiveDeltaUs;
        options.leader_of = [] { return consensus::ProcessId{0}; };
        options.probe.metrics = &reg;
        options.probe.tracer = &tracers[self];
        return std::make_unique<core::TwoStepProcess>(env, config, options);
      });
  ASSERT_TRUE(cluster.wait_for_mesh());
  cluster.node(0).propose(Value{99});
  const auto voted_by = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (int p = 1; p < config.n; ++p) {
    while (!sinks[p].voted.load()) {
      ASSERT_LT(std::chrono::steady_clock::now(), voted_by);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (int p = 1; p < config.n; ++p) cluster.node(p).propose(Value{99});

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    bool all = true;
    for (int p = 0; p < config.n; ++p)
      if (!cluster.node(p).has_decided()) all = false;
    if (all) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  cluster.stop();

  obs::MetricsRegistry merged = cluster.merged_metrics();
  EXPECT_GE(merged.counter_value("decisions.fast"), 1u);
  EXPECT_EQ(merged.counter_value("decisions.fast") + merged.counter_value("decisions.slow") +
                merged.counter_value("decisions.learned"),
            static_cast<std::uint64_t>(config.n));
  // The mesh sent real bytes.
  EXPECT_GT(merged.counter_value("transport.bytes_sent"), 0u);
}

TEST(LiveConformance, RsmAppliedLogMatchesSimulatorForSameCommandSequence) {
  const consensus::SystemConfig config(3, 1, 1);
  const std::vector<std::int64_t> payloads = {5, 17, 3, 29, 11, 2, 23, 8};

  // Simulated: replica 0 submits the same payloads at t=0, in order.
  auto runner = harness::RunSpec(config).delta(100).seed(1).rsm();
  consensus::SyncScenario scenario;
  for (const std::int64_t payload : payloads) scenario.proposals.push_back({0, Value{payload}});
  runner->run(scenario);
  std::vector<std::pair<std::int32_t, std::int64_t>> sim_log;
  auto& sim_proc = runner->cluster().process(0);
  for (std::int32_t slot = 0; slot < sim_proc.applied_prefix(); ++slot)
    sim_log.emplace_back(slot, *sim_proc.decision(slot));

  // Live: a closed-loop client drives replica 0 (its proxy) with the same
  // sequence over a real socket.
  node::LocalCluster<rsm::RsmProcess> cluster(
      config.n, [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg,
                    consensus::ProcessId) {
        rsm::Options options;
        options.delta = kLiveDeltaUs;
        options.leader_of = [] { return consensus::ProcessId{0}; };
        options.probe.metrics = &reg;
        return std::make_unique<rsm::RsmProcess>(env, config, options);
      });
  ASSERT_TRUE(cluster.wait_for_mesh());

  obs::MetricsRegistry client_metrics;
  node::ClientSession client(cluster.endpoints()[0], &client_metrics);
  ASSERT_TRUE(client.connect());
  for (const std::int64_t payload : payloads) {
    const auto reply = client.call(payload);
    ASSERT_TRUE(reply.has_value()) << "command " << payload << " got no reply";
    EXPECT_TRUE(reply->ok);
    EXPECT_EQ(rsm::RsmProcess::command_payload(reply->value), payload);
  }

  // Wait for every replica to apply the full log.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    bool all = true;
    for (int p = 0; p < config.n; ++p)
      if (cluster.node(p).applied_log().size() < payloads.size()) all = false;
    if (all) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto live_log0 = cluster.node(0).applied_log();
  // All replicas applied the same log (the RSM safety property)...
  for (int p = 1; p < config.n; ++p) EXPECT_EQ(cluster.node(p).applied_log(), live_log0);
  cluster.stop();

  // ...and it is exactly the simulator's log: a sequential proxy yields a
  // deterministic slot assignment, and commands pack (proxy 0, local id)
  // identically in both worlds.
  EXPECT_EQ(live_log0, sim_log);

  // Per-request latency was captured (in the client's log histogram).
  EXPECT_EQ(client_metrics.counter_value("client.requests"), payloads.size());
  EXPECT_EQ(client_metrics.log_histogram_snapshot("client.rtt_us").count, payloads.size());
}

TEST(LiveConformance, EPaxosExecutionOrderMatchesSimulatorForSameCommandSequence) {
  const consensus::SystemConfig config(5, 2, 2);
  const std::vector<std::int64_t> payloads = {5, 17, 3, 29, 11, 2};

  // Simulated: replica 0 submits the payloads as a closed loop (each
  // command committed and quiesced before the next), with key 0 so every
  // command interferes — the execution order is a total order.
  consensus::Cluster<epaxos::EPaxosReplica> sim_fleet(
      config, std::make_unique<net::SynchronousRounds>(100),
      [&](consensus::Env<epaxos::Message>& env, consensus::ProcessId) {
        epaxos::Options options;
        options.delta = 100;
        return std::make_unique<epaxos::EPaxosReplica>(env, config, options);
      });
  std::vector<std::vector<std::int64_t>> sim_orders(static_cast<std::size_t>(config.n));
  for (consensus::ProcessId p = 0; p < config.n; ++p) {
    sim_fleet.process(p).on_execute =
        [&sim_orders, p](epaxos::InstanceId, const epaxos::Command& c) {
          sim_orders[static_cast<std::size_t>(p)].push_back(c.payload);
        };
  }
  for (const std::int64_t payload : payloads) {
    sim_fleet.process(0).submit(epaxos::Command{0, payload});
    sim_fleet.run();
  }
  for (consensus::ProcessId p = 0; p < config.n; ++p) {
    ASSERT_EQ(sim_orders[static_cast<std::size_t>(p)].size(), payloads.size()) << "p" << p;
    EXPECT_EQ(sim_orders[static_cast<std::size_t>(p)], sim_orders[0]) << "p" << p;
  }

  // Live: a closed-loop client drives replica 0 with the same sequence over
  // a real socket; the hosted adapter's default key policy is the same
  // total-interference key 0.
  node::LocalCluster<epaxos::EPaxosRsm> cluster(
      config.n, [&](consensus::Env<epaxos::Message>& env, obs::MetricsRegistry& reg,
                    consensus::ProcessId) {
        epaxos::HostOptions host;
        host.protocol.delta = kLiveDeltaUs;
        host.protocol.probe.metrics = &reg;
        return std::make_unique<epaxos::EPaxosRsm>(env, config, host);
      });
  ASSERT_TRUE(cluster.wait_for_mesh());

  obs::MetricsRegistry client_metrics;
  node::ClientSession client(cluster.endpoints()[0], &client_metrics);
  ASSERT_TRUE(client.connect());
  for (const std::int64_t payload : payloads) {
    const auto reply = client.call(payload);
    ASSERT_TRUE(reply.has_value()) << "command " << payload << " got no reply";
    EXPECT_TRUE(reply->ok);
  }

  // Wait for every replica to execute the full sequence.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    bool all = true;
    for (int p = 0; p < config.n; ++p)
      if (cluster.node(p).applied_log().size() < payloads.size()) all = false;
    if (all) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto live_log0 = cluster.node(0).applied_log();
  for (int p = 1; p < config.n; ++p) EXPECT_EQ(cluster.node(p).applied_log(), live_log0);
  cluster.stop();

  // The live applied log carries (execution index, token); proxy 0's token
  // is the raw payload, so the two worlds' execution orders compare 1:1.
  std::vector<std::int64_t> live_order;
  for (const auto& [slot, cmd] : live_log0) live_order.push_back(cmd);
  EXPECT_EQ(live_order, sim_orders[0]);
}

TEST(LiveRuntime, SingleShotClientGetsTheDecidedValue) {
  const consensus::SystemConfig config(3, 1, 1);
  node::LocalCluster<core::TwoStepProcess> cluster(
      config.n, [&](consensus::Env<core::Message>& env, obs::MetricsRegistry& reg,
                    consensus::ProcessId) {
        core::Options options;
        options.mode = core::Mode::kObject;
        options.delta = kLiveDeltaUs;
        options.leader_of = [] { return consensus::ProcessId{0}; };
        options.probe.metrics = &reg;
        return std::make_unique<core::TwoStepProcess>(env, config, options);
      });
  ASSERT_TRUE(cluster.wait_for_mesh());

  node::ClientSession client(cluster.endpoints()[0], nullptr);
  ASSERT_TRUE(client.connect());
  const auto reply = client.call(1234);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(reply->value, 1234);
  EXPECT_EQ(reply->slot, -1);

  // A second request against the decided instance answers immediately with
  // the same value, whatever payload it carries.
  const auto second = client.call(777);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->value, 1234);
  cluster.stop();
}

TEST(LiveRuntime, RejectsRsmPayloadOutsideCommandRange) {
  const consensus::SystemConfig config(3, 1, 1);
  node::LocalCluster<rsm::RsmProcess> cluster(
      config.n, [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg,
                    consensus::ProcessId) {
        rsm::Options options;
        options.delta = kLiveDeltaUs;
        options.leader_of = [] { return consensus::ProcessId{0}; };
        options.probe.metrics = &reg;
        return std::make_unique<rsm::RsmProcess>(env, config, options);
      });
  ASSERT_TRUE(cluster.wait_for_mesh());
  node::ClientSession client(cluster.endpoints()[1], nullptr);
  ASSERT_TRUE(client.connect());
  const auto reply = client.call(std::int64_t{1} << 41);  // outside the 40-bit range
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->ok);
  cluster.stop();
}

TEST(LiveRuntime, RetriedCallKeepsTheOriginalRttClock) {
  // Regression guard (N3 latency audit): a call that times out against a
  // silent replica and fails over must report its RTT from the ORIGINAL
  // issue instant — resetting the clock on retry would hide the outage
  // from every latency histogram.  The first endpoint is a listener that
  // completes the TCP handshake (backlog) but never answers; the real
  // cluster sits behind it.
  const consensus::SystemConfig config(3, 1, 1);
  node::LocalCluster<rsm::RsmProcess> cluster(
      config.n, [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg,
                    consensus::ProcessId) {
        rsm::Options options;
        options.delta = kLiveDeltaUs;
        options.leader_of = [] { return consensus::ProcessId{0}; };
        options.probe.metrics = &reg;
        return std::make_unique<rsm::RsmProcess>(env, config, options);
      });
  ASSERT_TRUE(cluster.wait_for_mesh());

  transport::Endpoint silent_ep{"127.0.0.1", 0};
  const int silent_fd = transport::bind_listener(silent_ep);  // never accepts
  ASSERT_GE(silent_fd, 0);

  std::vector<transport::Endpoint> servers{silent_ep};
  for (const auto& ep : cluster.endpoints()) servers.push_back(ep);
  node::ClientOptions options;
  options.attempt_timeout_ms = 100;
  obs::MetricsRegistry client_metrics;
  node::ClientSession client(servers, &client_metrics, options);
  ASSERT_TRUE(client.connect());  // lands on the silent listener

  const auto reply = client.call(42);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);
  EXPECT_GE(client_metrics.counter_value("client.failovers"), 1u);
  // The recorded RTT must include the >= 100 ms spent on the dead attempt.
  const auto rtt = client_metrics.log_histogram_snapshot("client.rtt_us");
  ASSERT_EQ(rtt.count, 1u);
  EXPECT_GE(rtt.min, 100'000.0) << "retry reset the RTT clock";
  const auto failover_rtt = client_metrics.log_histogram_snapshot("client.failover_rtt_us");
  EXPECT_EQ(failover_rtt.count, 1u);
  ::close(silent_fd);
  cluster.stop();
}

/// A loopback listener that never accepts.  With `drop_syns` its backlog is
/// 0 and pending connects fill its accept queue, after which the kernel
/// drops further SYNs: a plain blocking ::connect to it hangs for the whole
/// SYN retry schedule.  Closing it resets the connects still waiting on it.
class IdleListener {
 public:
  explicit IdleListener(bool drop_syns) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd_ < 0 || ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, drop_syns ? 0 : 16) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      return;
    port_ = ntohs(addr.sin_port);
    for (int i = 0; drop_syns && i < 4; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      (void)::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));  // left pending
      fillers_.push_back(fd);
    }
  }
  ~IdleListener() { close(); }
  IdleListener(const IdleListener&) = delete;
  IdleListener& operator=(const IdleListener&) = delete;

  [[nodiscard]] bool ok() const { return port_ != 0; }
  [[nodiscard]] transport::Endpoint endpoint() const { return {"127.0.0.1", port_}; }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    for (const int fd : fillers_)
      if (fd >= 0) ::close(fd);
    fillers_.clear();
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<int> fillers_;
};

TEST(LiveRuntime, ConnectGivesUpAtItsTimeoutWhenTheServerDropsSyns) {
  // connect() must give up at connect_timeout_ms even when the only server
  // drops SYNs.
  IdleListener listener(/*drop_syns=*/true);
  ASSERT_TRUE(listener.ok());
  node::ClientOptions options;
  options.connect_timeout_ms = 300;
  node::ClientSession client(listener.endpoint(), nullptr, options);
  auto connected = std::async(std::launch::async, [&] { return client.connect(); });
  const std::future_status status = connected.wait_for(std::chrono::seconds(2));
  // Closing the listener lets even a hung connect() return, so the future
  // can be joined.
  listener.close();
  ASSERT_EQ(status, std::future_status::ready) << "connect() ignored connect_timeout_ms";
  EXPECT_FALSE(connected.get());
}

TEST(LiveRuntime, ConnectReachesTheLiveServerAfterOneThatDropsSyns) {
  // Each dial gets a share of connect_timeout_ms, not all that is left, so
  // a server that drops SYNs leaves time to dial the live one after it.
  IdleListener dropping(/*drop_syns=*/true);
  IdleListener live(/*drop_syns=*/false);
  ASSERT_TRUE(dropping.ok());
  ASSERT_TRUE(live.ok());
  node::ClientOptions options;
  options.connect_timeout_ms = 1000;
  node::ClientSession client({dropping.endpoint(), live.endpoint()}, nullptr, options);
  const auto start = std::chrono::steady_clock::now();
  auto connected = std::async(std::launch::async, [&] { return client.connect(); });
  const std::future_status status = connected.wait_for(std::chrono::seconds(3));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  dropping.close();
  ASSERT_EQ(status, std::future_status::ready);
  EXPECT_TRUE(connected.get());
  EXPECT_LT(elapsed, std::chrono::milliseconds(options.connect_timeout_ms));
  EXPECT_EQ(client.current_server(), 1u);
}

// ---- PR 6: the flight recorder end to end over real sockets --------------

class TempDir {
 public:
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "twostep-trace-XXXXXX").string();
    dir_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return dir_; }

 private:
  std::string dir_;
};

TEST(LiveRuntime, BatchedPipelinedGroupCommitClusterServesOpenLoopLoad) {
  // The N3 saturation stack end to end on real sockets: command batching,
  // slot pipelining and group-commit WAL all on, driven by the open-loop
  // generator.  Every offered command must be answered (no losses, no
  // rejections), every acked payload must be applied, and all replicas
  // must agree on the applied sequence.
  const consensus::SystemConfig config(3, 1, 1);
  TempDir tmp;
  node::ClusterOptions cluster_options;
  cluster_options.storage.dir = tmp.path();
  cluster_options.storage.fsync = false;  // discipline under test, not the device
  cluster_options.storage.group_commit_us = 200;
  node::LocalCluster<rsm::RsmProcess> cluster(
      config.n,
      [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg, consensus::ProcessId) {
        rsm::Options options;
        options.delta = kLiveDeltaUs;
        options.leader_of = [] { return consensus::ProcessId{0}; };
        options.probe.metrics = &reg;
        options.batch_max = 16;
        options.batch_linger = 200;
        options.pipeline_window = 16;
        options.batch_fill = &reg.log_histogram("rsm.batch_fill");
        return std::make_unique<rsm::RsmProcess>(env, config, options);
      },
      cluster_options);
  ASSERT_TRUE(cluster.wait_for_mesh());

  node::LoadgenOptions gen_options;
  gen_options.rate = 2'000;
  gen_options.sessions = 64;
  gen_options.connections = 4;
  gen_options.duration_ms = 1'000;
  gen_options.drain_ms = 5'000;
  node::OpenLoopLoadgen gen(cluster.endpoints(), gen_options);
  const node::LoadResult result = gen.run();
  EXPECT_GT(result.ok, 0);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_EQ(result.lost, 0) << "commands unanswered after the drain";

  // Every replica applies the identical expanded command sequence...
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    bool all = true;
    for (int p = 0; p < config.n; ++p)
      if (cluster.node(p).applied_log().size() <
          static_cast<std::size_t>(result.ok)) all = false;
    if (all) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto log0 = cluster.node(0).applied_log();
  for (int p = 1; p < config.n; ++p) EXPECT_EQ(cluster.node(p).applied_log(), log0);

  // ...containing every acked payload exactly once.
  std::set<std::int64_t> applied_payloads;
  for (const auto& [slot, cmd] : log0)
    applied_payloads.insert(rsm::RsmProcess::command_payload(cmd));
  EXPECT_EQ(applied_payloads.size(), log0.size()) << "duplicate commands applied";
  for (const std::int64_t payload : gen.acked_payloads())
    ASSERT_TRUE(applied_payloads.contains(payload)) << "acked payload " << payload << " missing";
  cluster.stop();

  // The stack actually engaged: multi-command batches and amortized syncs.
  obs::MetricsRegistry merged = cluster.merged_metrics();
  EXPECT_GT(merged.log_histogram_snapshot("rsm.batch_fill").max, 1.0)
      << "no batch ever held more than one command";
  EXPECT_GT(merged.log_histogram_snapshot("wal.barrier_records").max, 1.0)
      << "no barrier synced more than one record";
}

/// One traced client command through replica 0 of a storage-backed
/// 3-replica RSM cluster, with the barrier run at the end of each entry
/// (group_commit_us = 0): the client's root span, then every span of its
/// trace, each tagged with its process ("client", "node-<i>").
struct TracedCommand {
  obs::SpanRecord root;
  std::vector<std::pair<std::string, obs::SpanRecord>> spans;
};

void run_traced_command(TracedCommand& run) {
  const consensus::SystemConfig config(3, 1, 1);
  TempDir tmp;
  node::ClusterOptions cluster_options;
  cluster_options.trace = true;
  cluster_options.storage.dir = tmp.path();
  cluster_options.storage.fsync = false;  // throwaway data; the span, not the device
  node::LocalCluster<rsm::RsmProcess> cluster(
      config.n,
      [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg, consensus::ProcessId) {
        rsm::Options options;
        options.delta = kLiveDeltaUs;
        options.leader_of = [] { return consensus::ProcessId{0}; };
        options.probe.metrics = &reg;
        return std::make_unique<rsm::RsmProcess>(env, config, options);
      },
      cluster_options);
  ASSERT_TRUE(cluster.wait_for_mesh());

  obs::FlightRecorder client_flight("client", 1000);
  node::ClientOptions client_options;
  client_options.flight = &client_flight;
  node::ClientSession client(cluster.endpoints()[0], nullptr, client_options);
  ASSERT_TRUE(client.connect());
  const auto reply = client.call(7);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);
  cluster.stop();  // joins every loop thread: all spans are recorded

  const auto client_spans = client_flight.spans();
  ASSERT_EQ(client_spans.size(), 1u);
  run.root = client_spans.front();
  EXPECT_STREQ(run.root.name, "client.call");
  EXPECT_EQ(run.root.parent_span, 0u);
  ASSERT_NE(run.root.trace_id, 0u);
  run.spans = {{"client", run.root}};
  for (int p = 0; p < config.n; ++p) {
    obs::FlightRecorder* rec = cluster.flight(p);
    ASSERT_NE(rec, nullptr);
    for (const obs::SpanRecord& s : rec->spans())
      if (s.trace_id == run.root.trace_id) run.spans.emplace_back("node-" + std::to_string(p), s);
  }
}

TEST(LiveTrace, OneClientCommandYieldsACausallyLinkedTreeAcrossProcesses) {
  // The tentpole acceptance criterion: a single traced client command on a
  // storage-backed 3-replica cluster produces spans from >= 3 processes,
  // every span's parent resolves inside the trace, and a WAL-fsync span is
  // among them.
  TracedCommand run;
  ASSERT_NO_FATAL_FAILURE(run_traced_command(run));
  std::set<std::string> processes;
  std::set<std::uint64_t> ids;
  bool saw_fsync = false, saw_child_of_root = false;
  for (const auto& [process, s] : run.spans) {
    processes.insert(process);
    ids.insert(s.span_id);
    if (std::strcmp(s.name, "wal.fsync") == 0) saw_fsync = true;
    if (s.parent_span == run.root.span_id) saw_child_of_root = true;
  }
  EXPECT_GE(processes.size(), 3u) << "spans from too few processes";
  EXPECT_TRUE(saw_fsync);
  EXPECT_TRUE(saw_child_of_root) << "no server span hangs off the client's root";
  // Causal linkage: every non-root parent resolves to a recorded span.
  for (const auto& [process, s] : run.spans) {
    if (s.parent_span == 0) continue;
    EXPECT_TRUE(ids.contains(s.parent_span))
        << process << "/" << s.name << " has a dangling parent";
  }
}

TEST(LiveTrace, PerEntryBarrierHoldsTheReplyUntilItsEntrysFsync) {
  // Persist-before-ack with the barrier run per entry: the reply leaves
  // (and the proxy's "serve" span ends) inside the handling of some
  // message, and only after that entry's WAL sync.  So on node 0, "serve"
  // ends no earlier than every wal.fsync span of the message span it ended
  // in.
  TracedCommand run;
  ASSERT_NO_FATAL_FAILURE(run_traced_command(run));
  std::vector<obs::SpanRecord> node0;
  for (const auto& [process, s] : run.spans)
    if (process == "node-0") node0.push_back(s);
  const auto end_of = [](const obs::SpanRecord& s) { return s.start_us + s.dur_us; };
  const auto serve = std::find_if(node0.begin(), node0.end(),
                                  [](const auto& s) { return std::strcmp(s.name, "serve") == 0; });
  ASSERT_NE(serve, node0.end()) << "no serve span on the proxy";
  const std::int64_t serve_end = end_of(*serve);
  // Message spans on one loop thread never overlap: at most one holds it.
  const auto entry = std::find_if(node0.begin(), node0.end(), [&](const auto& s) {
    return std::strcmp(s.name, "serve") != 0 && std::strcmp(s.name, "wal.fsync") != 0 &&
           s.start_us <= serve_end && serve_end <= end_of(s);
  });
  ASSERT_NE(entry, node0.end()) << "serve did not end inside a message span";
  int fsyncs = 0;
  for (const obs::SpanRecord& s : node0) {
    if (std::strcmp(s.name, "wal.fsync") != 0 || s.parent_span != entry->span_id) continue;
    ++fsyncs;
    EXPECT_GE(serve_end, end_of(s)) << "the reply left before its entry's WAL sync";
  }
  EXPECT_GT(fsyncs, 0) << "the " << entry->name << " entry that answered synced nothing";
}

TEST(LiveStats, StatsRequestFrameScrapesARunningNode) {
  // `twostep stats` in miniature: a bare kStatsRequest (no Hello handshake)
  // against any replica returns its metrics snapshot as JSON.
  const consensus::SystemConfig config(3, 1, 1);
  node::LocalCluster<rsm::RsmProcess> cluster(
      config.n,
      [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg, consensus::ProcessId) {
        rsm::Options options;
        options.delta = kLiveDeltaUs;
        options.leader_of = [] { return consensus::ProcessId{0}; };
        options.probe.metrics = &reg;
        return std::make_unique<rsm::RsmProcess>(env, config, options);
      });
  ASSERT_TRUE(cluster.wait_for_mesh());

  const transport::Endpoint& target = cluster.endpoints()[1];
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(target.port);
  ASSERT_EQ(::inet_pton(AF_INET, target.host.c_str(), &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const auto frame = transport::make_frame(transport::FrameKind::kStatsRequest,
                                           codec::encode(codec::StatsRequest{42}));
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0), static_cast<ssize_t>(frame.size()));

  transport::FrameParser parser;
  std::optional<codec::StatsReply> reply;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!reply && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    std::uint8_t buf[4096];
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(got, 0) << "node closed the connection";
    ASSERT_TRUE(parser.feed({buf, static_cast<std::size_t>(got)})) << parser.error();
    while (auto f = parser.next()) {
      ASSERT_EQ(f->kind, transport::FrameKind::kStatsReply);
      reply = codec::decode_stats_reply(f->payload);
      ASSERT_TRUE(reply.has_value()) << "malformed stats reply payload";
    }
  }
  ::close(fd);
  ASSERT_TRUE(reply.has_value()) << "no stats reply within the deadline";
  EXPECT_EQ(reply->id, 42);
  EXPECT_NE(reply->json.find("\"schema\":\"twostep-stats/1\""), std::string::npos)
      << reply->json;
  EXPECT_NE(reply->json.find("\"node\":1"), std::string::npos) << reply->json;
  EXPECT_NE(reply->json.find("\"metrics\""), std::string::npos) << reply->json;
  cluster.stop();
}

// ---- live membership reconfiguration + leader failover -------------------

node::LocalCluster<rsm::RsmProcess>::Factory rsm_factory(const consensus::SystemConfig& config) {
  return [config](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg,
                  consensus::ProcessId) {
    rsm::Options options;
    options.delta = kLiveDeltaUs;
    options.leader_of = [] { return consensus::ProcessId{0}; };
    options.probe.metrics = &reg;
    return std::make_unique<rsm::RsmProcess>(env, config, options);
  };
}

/// Polls until `pred` holds or `ms` elapses; returns whether it held.
template <typename Pred>
bool eventually(Pred&& pred, std::int64_t ms = 15'000) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// Slot-aligned pairwise agreement: the overlap of two applied logs (a
/// joiner's starts at its snapshot floor) must match entry for entry.
bool logs_agree(const std::vector<std::pair<std::int32_t, std::int64_t>>& a,
                const std::vector<std::pair<std::int32_t, std::int64_t>>& b) {
  if (a.empty() || b.empty()) return true;
  std::size_t i = 0, j = 0;
  if (a.front().first < b.front().first)
    while (i < a.size() && a[i].first < b.front().first) ++i;
  else
    while (j < b.size() && b[j].first < a.front().first) ++j;
  const std::size_t m = std::min(a.size() - i, b.size() - j);
  for (std::size_t k = 0; k < m; ++k)
    if (a[i + k] != b[j + k]) return false;
  return true;
}

TEST(LiveReconfig, AddAndRemoveReplicaConvergeAcrossTheCluster) {
  // The tentpole conformance check: a joiner admitted through the config
  // log heals from snapshot state transfer and tracks the live log; a
  // removed founder is retired without an availability cliff; every live
  // member ends at the same config version with slot-aligned agreement.
  const consensus::SystemConfig config(3, 1, 1);
  TempDir tmp;
  node::ClusterOptions cluster_options;
  cluster_options.storage.dir = tmp.path();
  cluster_options.storage.fsync = false;
  cluster_options.storage.snapshot_every = 32;  // the joiner heals by transfer
  node::LocalCluster<rsm::RsmProcess> cluster(config.n, rsm_factory(config), cluster_options);
  ASSERT_TRUE(cluster.wait_for_mesh());

  node::ClientSession client(cluster.endpoints()[0], nullptr);
  ASSERT_TRUE(client.connect());
  for (std::int64_t i = 0; i < 50; ++i) {
    const auto reply = client.call(i);
    ASSERT_TRUE(reply.has_value() && reply->ok) << "i=" << i;
  }

  const int joiner = cluster.add_replica();
  ASSERT_EQ(joiner, 3);
  ASSERT_TRUE(cluster.wait_for_mesh(10'000));  // join reached every member
  for (std::int64_t i = 50; i < 100; ++i) {
    const auto reply = client.call(i);
    ASSERT_TRUE(reply.has_value() && reply->ok) << "i=" << i;
  }
  EXPECT_TRUE(eventually([&] { return cluster.node(joiner).config_version() == 1; }));

  ASSERT_TRUE(cluster.remove_replica(2));
  EXPECT_TRUE(cluster.removed(2));
  EXPECT_TRUE(eventually([&] { return cluster.node(0).config_version() == 2; }));
  for (std::int64_t i = 100; i < 120; ++i) {
    const auto reply = client.call(i);
    ASSERT_TRUE(reply.has_value() && reply->ok) << "i=" << i;
  }

  // The joiner catches up to the founders' applied head, and the overlaps
  // agree slot for slot (its log starts at the snapshot floor).
  ASSERT_TRUE(eventually([&] {
    const auto head = [&](int p) {
      const auto log = cluster.node(p).applied_log();
      return log.empty() ? -1 : log.back().first;
    };
    return head(joiner) >= std::max(head(0), head(1)) && head(0) == head(1);
  }));
  const auto log0 = cluster.node(0).applied_log();
  EXPECT_TRUE(logs_agree(log0, cluster.node(1).applied_log()));
  EXPECT_TRUE(logs_agree(log0, cluster.node(joiner).applied_log()));
  for (int p : {0, 1, joiner}) EXPECT_EQ(cluster.node(p).config_version(), 2) << "p" << p;
  cluster.stop();
}

TEST(LiveFailover, DeadLeaderIsSuspectedAndLeadershipMoves) {
  // Kill the Ω leader outright: with the failure detector armed the
  // survivors must suspect it within a bounded number of jittered
  // timeouts, agree on the next leader, and keep serving commands.
  const consensus::SystemConfig config(3, 1, 1);
  node::ClusterOptions cluster_options;
  cluster_options.failover.enabled = true;
  cluster_options.failover.period_us = 10'000;
  cluster_options.failover.timeout_min_us = 80'000;
  cluster_options.failover.timeout_max_us = 800'000;
  node::LocalCluster<rsm::RsmProcess> cluster(config.n, rsm_factory(config), cluster_options);
  ASSERT_TRUE(cluster.wait_for_mesh());
  for (int p = 0; p < config.n; ++p) EXPECT_EQ(cluster.node(p).leader(), 0) << "p" << p;

  cluster.kill(0);
  EXPECT_TRUE(eventually(
      [&] { return cluster.node(1).leader() != 0 && cluster.node(2).leader() != 0; }))
      << "survivors never moved off the dead leader";
  EXPECT_EQ(cluster.node(1).leader(), cluster.node(2).leader());

  // The cluster still commits with the leader dead (client fails over).
  node::ClientOptions client_options;
  client_options.attempt_timeout_ms = 500;
  node::ClientSession client(
      {cluster.endpoints()[1], cluster.endpoints()[2]}, nullptr, client_options);
  ASSERT_TRUE(client.connect());
  const auto reply = client.call(4242);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);

  // The restarted leader rejoins the detector's view and is unsuspected.
  cluster.restart(0);
  EXPECT_TRUE(eventually([&] { return cluster.node(0).leader() == cluster.node(1).leader(); }));
  cluster.stop();
}

TEST(LiveReconfig, JoinWhileAFounderIsDownStillHeals) {
  // The chaossoak pin: admit a joiner while one founder is crashed.  The
  // remaining majority decides the add; the crashed founder recovers from
  // its WAL, learns the new config it slept through, and everyone
  // converges to the same version and slot-aligned logs.
  const consensus::SystemConfig config(3, 1, 1);
  TempDir tmp;
  node::ClusterOptions cluster_options;
  cluster_options.storage.dir = tmp.path();
  cluster_options.storage.fsync = false;
  cluster_options.storage.snapshot_every = 32;
  cluster_options.failover.enabled = true;
  cluster_options.failover.period_us = 10'000;
  cluster_options.failover.timeout_min_us = 80'000;
  cluster_options.failover.timeout_max_us = 800'000;
  node::LocalCluster<rsm::RsmProcess> cluster(config.n, rsm_factory(config), cluster_options);
  ASSERT_TRUE(cluster.wait_for_mesh());

  node::ClientSession client(cluster.endpoints()[1], nullptr);
  ASSERT_TRUE(client.connect());
  for (std::int64_t i = 0; i < 40; ++i) {
    const auto reply = client.call(i);
    ASSERT_TRUE(reply.has_value() && reply->ok) << "i=" << i;
  }

  cluster.kill(2);
  const int joiner = cluster.add_replica();
  ASSERT_EQ(joiner, 3);
  for (std::int64_t i = 40; i < 80; ++i) {
    const auto reply = client.call(i);
    ASSERT_TRUE(reply.has_value() && reply->ok) << "i=" << i;
  }
  EXPECT_TRUE(eventually([&] { return cluster.node(joiner).config_version() == 1; }))
      << "joiner never adopted the config it was admitted under";

  cluster.restart(2);
  ASSERT_TRUE(eventually([&] {
    for (int p = 0; p < 4; ++p)
      if (cluster.node(p).config_version() != 1) return false;
    return true;
  })) << "the recovered founder never learned the join it slept through";

  ASSERT_TRUE(eventually([&] {
    const auto head = [&](int p) {
      const auto log = cluster.node(p).applied_log();
      return log.empty() ? -1 : log.back().first;
    };
    const auto h0 = head(0);
    return h0 >= 0 && head(1) == h0 && head(2) == h0 && head(joiner) >= h0;
  }));
  const auto log0 = cluster.node(0).applied_log();
  for (int p = 1; p <= joiner; ++p)
    EXPECT_TRUE(logs_agree(log0, cluster.node(p).applied_log())) << "p" << p;
  cluster.stop();
}

TEST(LiveCatchup, ReconnectResendsOnlySlotsAboveTheRecoveredPrefix) {
  // Restart an up-to-date replica: it recovers its whole log from its WAL,
  // so the survivors' reconnects must not resend a single decided slot.
  // Each reconnect exchanges applied prefixes (Catchup frames) and heals
  // only what lies above the reborn replica's recovered prefix.
  const consensus::SystemConfig config(3, 1, 1);
  TempDir tmp;
  node::ClusterOptions cluster_options;
  cluster_options.storage.dir = tmp.path();
  cluster_options.storage.fsync = false;
  // Only the reconnects may resend: no periodic gossip racing the count.
  cluster_options.anti_entropy_period_us = 0;
  node::LocalCluster<rsm::RsmProcess> cluster(config.n, rsm_factory(config), cluster_options);
  ASSERT_TRUE(cluster.wait_for_mesh());

  node::ClientSession client(cluster.endpoints()[0], nullptr);
  ASSERT_TRUE(client.connect());
  constexpr std::int64_t kCommands = 40;
  for (std::int64_t i = 0; i < kCommands; ++i) {
    const auto reply = client.call(i);
    ASSERT_TRUE(reply.has_value() && reply->ok) << "i=" << i;
  }
  const auto applied = [&](int p) { return cluster.node(p).applied_log().size(); };
  ASSERT_TRUE(eventually([&] {
    return applied(0) >= static_cast<std::size_t>(kCommands) && applied(1) == applied(0) &&
           applied(2) == applied(0);
  }));
  const auto resent = [&] {
    return cluster.node(0).metrics().counter_value("node.decide_resent") +
           cluster.node(1).metrics().counter_value("node.decide_resent");
  };
  const std::uint64_t resent_before = resent();
  const auto received = [&](int p) {
    return cluster.node(p).metrics().counter_value("node.catchup_received");
  };
  const std::uint64_t received_before[2] = {received(0), received(1)};

  cluster.kill(2);
  cluster.restart(2);
  const std::size_t recovered = applied(2);
  EXPECT_EQ(recovered, applied(0)) << "the replica was up to date when it stopped";
  ASSERT_TRUE(cluster.wait_for_mesh());
  // Wait for every reconnect's exchange to land: the reborn replica holds
  // both survivors' Catchups and each survivor holds its Catchup.  Any
  // resend a survivor makes on reconnect goes out with its Catchup or in
  // answer to the reborn one, so it is counted by then.
  ASSERT_TRUE(eventually([&] {
    return received(2) >= 2 && received(0) > received_before[0] &&
           received(1) > received_before[1];
  })) << "the reconnects exchanged no applied prefixes";
  const std::size_t above = (applied(0) - recovered) + (applied(1) - recovered);
  EXPECT_LE(resent() - resent_before, above)
      << "survivors resent decided slots at or below the recovered prefix";
  EXPECT_EQ(applied(2), applied(0));
  cluster.stop();
}

TEST(LiveCatchup, PeriodicGossipHealsAHolePunchedByFrameLoss) {
  // The one failure shape reconnect anti-entropy cannot reach: Decides to
  // a replica are dropped by the network while its TCP connections stay
  // up (no reconnect, so no resend) and nothing checkpoints afterwards
  // (no fresh snapshot offer).  Blackhole both inbound directions to
  // replica 2 for a window, commit through the {0, 1} quorum inside it,
  // and let the window heal with no further traffic: only the periodic
  // applied-prefix gossip can close the hole.
  const consensus::SystemConfig config(3, 1, 1);
  node::ClusterOptions cluster_options;
  cluster_options.anti_entropy_period_us = 150'000;
  cluster_options.chaos.blackholes = {{0, 2, 1'000'000, 4'000'000},
                                      {1, 2, 1'000'000, 4'000'000}};
  const auto t0 = std::chrono::steady_clock::now();
  node::LocalCluster<rsm::RsmProcess> cluster(config.n, rsm_factory(config), cluster_options);
  ASSERT_TRUE(cluster.wait_for_mesh());  // hellos pass before the window opens

  // Land every command inside the blackhole window (loop clocks start at
  // node construction, within milliseconds of t0).
  std::this_thread::sleep_until(t0 + std::chrono::milliseconds(1'300));
  node::ClientSession client(cluster.endpoints()[0], nullptr);
  ASSERT_TRUE(client.connect());
  for (std::int64_t i = 0; i < 40; ++i) {
    const auto reply = client.call(i);
    ASSERT_TRUE(reply.has_value() && reply->ok) << "i=" << i;
  }
  // Still inside the window: the victim must have missed at least part of
  // the run (this is what makes the heal below meaningful).
  const auto head = [&](int p) {
    const auto log = cluster.node(p).applied_log();
    return log.empty() ? -1 : log.back().first;
  };
  EXPECT_LT(head(2), head(0));

  // No more client traffic, no crash, no reconnect — convergence can only
  // come from the catch-up gossip answered after the window heals.
  ASSERT_TRUE(eventually([&] {
    const auto h0 = head(0);
    return h0 >= 39 && head(1) == h0 && head(2) == h0;
  })) << "the blackholed replica never healed without a reconnect";
  const auto log0 = cluster.node(0).applied_log();
  EXPECT_TRUE(logs_agree(log0, cluster.node(1).applied_log()));
  EXPECT_TRUE(logs_agree(log0, cluster.node(2).applied_log()));
  cluster.stop();
}

}  // namespace
}  // namespace twostep
