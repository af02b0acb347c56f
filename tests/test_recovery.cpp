// Crash-recovery conformance for the live node runtime.
//
// These tests kill real replicas (sockets die, peers see resets), restart
// them on the same port against the same write-ahead log, and assert the
// cluster's observable behavior matches the no-crash simulator oracle:
// same applied log, agreement everywhere, recovered state visible in the
// recover.* metrics.  The Live* suite names keep this file in the TSan CI
// shard — kill/restart while a workload is in flight is exactly where a
// threading bug in the runtime would surface.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "consensus/types.hpp"
#include "core/two_step.hpp"
#include "harness/run_spec.hpp"
#include "node/client.hpp"
#include "node/loadgen.hpp"
#include "node/local_cluster.hpp"
#include "node/runtime.hpp"
#include "rsm/rsm.hpp"

namespace twostep {
namespace {

using consensus::Value;

constexpr sim::Tick kLiveDeltaUs = 100'000;  // 100 ms

class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "twostep-recovery-XXXXXX").string();
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

node::ClusterOptions storage_options(const TempDir& tmp) {
  node::ClusterOptions options;
  options.storage.dir = tmp.path();
  options.storage.fsync = false;  // throwaway data; the discipline, not the device
  return options;
}

rsm::Options rsm_options(obs::MetricsRegistry& reg) {
  rsm::Options options;
  options.delta = kLiveDeltaUs;
  options.leader_of = [] { return consensus::ProcessId{0}; };
  options.probe.metrics = &reg;
  return options;
}

template <typename Cluster>
void wait_all_applied(Cluster& cluster, int n, std::size_t target) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    bool all = true;
    for (int p = 0; p < n; ++p)
      if (!cluster.alive(p) || cluster.node(p).applied_log().size() < target) all = false;
    if (all) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "replicas did not apply " << target << " commands in time";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(LiveRecovery, RestartedReplicaRecoversDecisionFromWalAlone) {
  TempDir tmp;
  const consensus::SystemConfig config(3, 1, 1);
  const auto make = [&](consensus::Env<core::Message>& env, obs::MetricsRegistry& reg,
                        consensus::ProcessId) {
    core::Options options;
    options.mode = core::Mode::kObject;
    options.delta = kLiveDeltaUs;
    options.leader_of = [] { return consensus::ProcessId{0}; };
    options.probe.metrics = &reg;
    return std::make_unique<core::TwoStepProcess>(env, config, options);
  };
  {
    node::LocalCluster<core::TwoStepProcess> cluster(config.n, make, storage_options(tmp));
    ASSERT_TRUE(cluster.wait_for_mesh());
    node::ClientSession client(cluster.endpoints()[0], nullptr);
    ASSERT_TRUE(client.connect());
    const auto reply = client.call(1234);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->value, 1234);
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
  }
  // Rebuild replica 0 from its WAL with NO network started and NO messages
  // delivered: the decision must come back from disk alone, and the
  // recovery must be observable in the metrics.
  node::RuntimeOptions options;
  options.storage = node::StorageOptions{tmp.path() + "/r0", false};
  node::Runtime<core::TwoStepProcess> reborn(
      0, config.n, transport::Endpoint{"127.0.0.1", 0},
      [&](consensus::Env<core::Message>& env, obs::MetricsRegistry& reg) {
        return make(env, reg, 0);
      },
      options);
  EXPECT_TRUE(reborn.has_decided());
  EXPECT_EQ(reborn.decided_value(), Value{1234});
  EXPECT_EQ(reborn.metrics().counter_value("recover.decided"), 1u);
  EXPECT_GT(reborn.metrics().counter_value("wal.recovered_records"), 0u);
}

TEST(LiveRecovery, KillRestartConformsToSimulatorOracle) {
  // A replica crashes mid-stream and recovers from its WAL; the surviving
  // pair keeps committing through the outage (n=3, f=1).  Afterwards every
  // replica — including the reborn one — must hold exactly the log the
  // no-crash simulator oracle produces for the same command sequence.
  const consensus::SystemConfig config(3, 1, 1);
  const std::vector<std::int64_t> payloads = {5, 17, 3, 29, 11, 2, 23, 8, 31, 13, 7, 19};

  auto runner = harness::RunSpec(config).delta(100).seed(1).rsm();
  consensus::SyncScenario scenario;
  for (const std::int64_t payload : payloads) scenario.proposals.push_back({0, Value{payload}});
  runner->run(scenario);
  std::vector<std::pair<std::int32_t, std::int64_t>> oracle;
  auto& sim_proc = runner->cluster().process(0);
  for (std::int32_t slot = 0; slot < sim_proc.applied_prefix(); ++slot)
    oracle.emplace_back(slot, *sim_proc.decision(slot));
  ASSERT_EQ(oracle.size(), payloads.size());

  TempDir tmp;
  node::LocalCluster<rsm::RsmProcess> cluster(
      config.n,
      [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg, consensus::ProcessId) {
        return std::make_unique<rsm::RsmProcess>(env, config, rsm_options(reg));
      },
      storage_options(tmp));
  ASSERT_TRUE(cluster.wait_for_mesh());
  node::ClientSession client(cluster.endpoints()[0], nullptr);
  ASSERT_TRUE(client.connect());

  // Phase 1: a third of the stream with everyone up.
  std::size_t i = 0;
  for (; i < payloads.size() / 3; ++i) ASSERT_TRUE(client.call(payloads[i]).has_value());
  // Phase 2: replica 1 is dead; the {0, 2} majority keeps committing.
  cluster.kill(1);
  ASSERT_FALSE(cluster.alive(1));
  for (; i < 2 * payloads.size() / 3; ++i) ASSERT_TRUE(client.call(payloads[i]).has_value());
  // Phase 3: replica 1 is reborn from its WAL on the same port and must
  // catch up on what it missed.
  cluster.restart(1);
  ASSERT_TRUE(cluster.alive(1));
  for (; i < payloads.size(); ++i) ASSERT_TRUE(client.call(payloads[i]).has_value());

  wait_all_applied(cluster, config.n, payloads.size());
  const auto log0 = cluster.node(0).applied_log();
  const auto log1 = cluster.node(1).applied_log();
  const auto log2 = cluster.node(2).applied_log();
  cluster.stop();

  EXPECT_EQ(log0, oracle);
  EXPECT_EQ(log1, oracle);
  EXPECT_EQ(log2, oracle);

  // The reborn replica provably recovered state from disk rather than
  // starting cold.
  obs::MetricsRegistry merged = cluster.merged_metrics();
  EXPECT_GT(merged.counter_value("recover.slots"), 0u);
  EXPECT_GT(merged.counter_value("wal.recovered_records"), 0u);
}

TEST(LiveRecovery, ClientFailsOverWhenItsProxyIsKilled) {
  // The client's own proxy dies under an in-flight workload; the session
  // must redial another replica and finish the stream without losing a
  // command.  Runs under TSan in CI: a kill tears down one runtime's loop
  // thread while two others and the client thread keep going.
  const consensus::SystemConfig config(3, 1, 1);
  TempDir tmp;
  node::LocalCluster<rsm::RsmProcess> cluster(
      config.n,
      [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg, consensus::ProcessId) {
        return std::make_unique<rsm::RsmProcess>(env, config, rsm_options(reg));
      },
      storage_options(tmp));
  ASSERT_TRUE(cluster.wait_for_mesh());

  obs::MetricsRegistry client_metrics;
  node::ClientSession client(cluster.endpoints(), &client_metrics);
  ASSERT_TRUE(client.connect());

  constexpr std::int64_t kCommands = 60;
  std::int64_t ok = 0;
  std::set<std::int64_t> acked;
  for (std::int64_t c = 0; c < kCommands; ++c) {
    if (c == 20) cluster.kill(0);     // the proxy (and fixed leader) dies...
    if (c == 40) cluster.restart(0);  // ...and later rejoins from its WAL
    const auto reply = client.call(c);
    ASSERT_TRUE(reply.has_value()) << "command " << c << " lost";
    if (reply->ok) {
      ++ok;
      acked.insert(c);
    }
  }
  EXPECT_EQ(ok, kCommands);
  EXPECT_GE(client_metrics.counter_value("client.failovers"), 1u);

  // Every replica converges on one log that contains every acked command
  // (duplicates after a failover retry are legal; divergence is not).
  wait_all_applied(cluster, config.n, acked.size());
  const auto log0 = cluster.node(0).applied_log();
  for (int p = 1; p < config.n; ++p) {
    const auto log = cluster.node(p).applied_log();
    const std::size_t m = std::min(log0.size(), log.size());
    for (std::size_t k = 0; k < m; ++k)
      ASSERT_EQ(log0[k], log[k]) << "divergence at applied index " << k;
  }
  std::set<std::int64_t> applied_payloads;
  for (const auto& [slot, cmd] : log0)
    applied_payloads.insert(rsm::RsmProcess::command_payload(cmd));
  for (const std::int64_t c : acked) EXPECT_TRUE(applied_payloads.contains(c));
  cluster.stop();
}

TEST(LiveRecovery, GroupCommitCrashLosesNoAckedCommand) {
  // Group-commit WAL (N3): appends from many protocol entries share one
  // sync barrier, and replies are held until the barrier runs — so by the
  // time a client sees an ack, every vote backing it is durable.  Kill the
  // proxy mid-stream (at an arbitrary point relative to its barrier
  // timer), restart it from its WAL, and require every acked command in
  // every replica's log.  Batching is on, so a batch sealed just before
  // the kill exercises the batch-record-before-slot-record capture order.
  const consensus::SystemConfig config(3, 1, 1);
  TempDir tmp;
  node::ClusterOptions cluster_options = storage_options(tmp);
  cluster_options.storage.group_commit_us = 500;
  node::LocalCluster<rsm::RsmProcess> cluster(
      config.n,
      [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg, consensus::ProcessId) {
        rsm::Options options = rsm_options(reg);
        options.batch_max = 8;
        options.batch_linger = 300;
        options.pipeline_window = 8;
        options.batch_fill = &reg.log_histogram("rsm.batch_fill");
        return std::make_unique<rsm::RsmProcess>(env, config, options);
      },
      cluster_options);
  ASSERT_TRUE(cluster.wait_for_mesh());

  obs::MetricsRegistry client_metrics;
  node::ClientSession client(cluster.endpoints(), &client_metrics);
  ASSERT_TRUE(client.connect());

  constexpr std::int64_t kCommands = 60;
  std::set<std::int64_t> acked;
  for (std::int64_t c = 0; c < kCommands; ++c) {
    if (c == 25) cluster.kill(0);     // proxy + fixed leader dies...
    if (c == 45) cluster.restart(0);  // ...and rejoins from its WAL
    const auto reply = client.call(c);
    ASSERT_TRUE(reply.has_value()) << "command " << c << " lost";
    if (reply->ok) acked.insert(c);
  }
  EXPECT_EQ(static_cast<std::int64_t>(acked.size()), kCommands);

  wait_all_applied(cluster, config.n, acked.size());
  const auto log0 = cluster.node(0).applied_log();
  for (int p = 1; p < config.n; ++p) {
    const auto log = cluster.node(p).applied_log();
    const std::size_t m = std::min(log0.size(), log.size());
    for (std::size_t k = 0; k < m; ++k)
      ASSERT_EQ(log0[k], log[k]) << "divergence at applied index " << k;
  }
  std::set<std::int64_t> applied_payloads;
  for (const auto& [slot, cmd] : log0)
    applied_payloads.insert(rsm::RsmProcess::command_payload(cmd));
  for (const std::int64_t c : acked)
    EXPECT_TRUE(applied_payloads.contains(c)) << "acked command " << c << " not durable";
  cluster.stop();

  // Barriers actually grouped records (every mode runs barriers; only
  // group commit lets one cover several), and the reborn replica
  // recovered batch sidecar records from disk.
  obs::MetricsRegistry merged = cluster.merged_metrics();
  EXPECT_GT(merged.log_histogram_snapshot("wal.barrier_records").max, 1.0)
      << "no barrier synced more than one record";
  EXPECT_GT(merged.counter_value("recover.slots"), 0u);
}

TEST(LiveRecovery, BatchedWorkloadRecoversBatchContentsFromWalAlone) {
  // A replica that decided batched slots must recover the batch CONTENTS
  // from its own WAL — a handle without its payload list would stall
  // application forever on restart.  Drive an open-loop burst (a single
  // closed-loop client never coalesces: a batch of one proposes the plain
  // command), then rebuild replica 0 from disk with no network and require
  // the full expanded log.
  const consensus::SystemConfig config(3, 1, 1);
  TempDir tmp;
  const auto make = [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg,
                        consensus::ProcessId) {
    rsm::Options options = rsm_options(reg);
    options.batch_max = 8;
    options.batch_linger = 500;
    options.batch_fill = &reg.log_histogram("rsm.batch_fill");
    return std::make_unique<rsm::RsmProcess>(env, config, options);
  };
  std::vector<std::pair<std::int32_t, std::int64_t>> live_log;
  {
    node::ClusterOptions cluster_options = storage_options(tmp);
    cluster_options.storage.group_commit_us = 300;
    node::LocalCluster<rsm::RsmProcess> cluster(config.n, make, cluster_options);
    ASSERT_TRUE(cluster.wait_for_mesh());
    node::LoadgenOptions gen_options;
    gen_options.rate = 2'000;
    gen_options.sessions = 32;
    gen_options.connections = 4;
    gen_options.duration_ms = 400;
    gen_options.drain_ms = 5'000;
    node::OpenLoopLoadgen gen(cluster.endpoints(), gen_options);
    const node::LoadResult result = gen.run();
    ASSERT_GT(result.ok, 0);
    ASSERT_EQ(result.lost, 0);
    wait_all_applied(cluster, config.n, static_cast<std::size_t>(result.ok));
    live_log = cluster.node(0).applied_log();
    cluster.stop();
    // The workload must actually have exercised batching (a sealed batch
    // of > 1 command), or the recovery assertion below is vacuous.
    obs::MetricsRegistry merged = cluster.merged_metrics();
    ASSERT_GT(merged.log_histogram_snapshot("rsm.batch_fill").max, 1.0);
  }
  ASSERT_GE(live_log.size(), 2u);

  node::RuntimeOptions options;
  options.storage = node::StorageOptions{tmp.path() + "/r0", false};
  node::Runtime<rsm::RsmProcess> reborn(
      0, config.n, transport::Endpoint{"127.0.0.1", 0},
      [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg) { return make(env, reg, 0); },
      options);
  const auto reborn_log = reborn.applied_log();
  // The WAL may hold decisions beyond the snapshot instant (commands acked
  // between the applied-count check and stop), so require the live log to
  // be a prefix of the recovered one, never the other way around.
  ASSERT_GE(reborn_log.size(), live_log.size());
  for (std::size_t k = 0; k < live_log.size(); ++k)
    ASSERT_EQ(reborn_log[k], live_log[k]) << "recovered log diverges at index " << k;
  EXPECT_GT(reborn.metrics().counter_value("recover.batches"), 0u);
}

TEST(LiveRecovery, SnapshotRecoveryRestoresTheLogWithoutGenesisReplay) {
  // Periodic snapshots + WAL truncation: a replica reborn from disk must
  // come back from snapshot-install + tail replay — the compacted prefix
  // no longer exists as WAL records — and still hold the same applied log
  // the live cluster produced.
  const consensus::SystemConfig config(3, 1, 1);
  TempDir tmp;
  const auto make = [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg,
                        consensus::ProcessId) {
    return std::make_unique<rsm::RsmProcess>(env, config, rsm_options(reg));
  };
  std::vector<std::pair<std::int32_t, std::int64_t>> live_log;
  {
    node::ClusterOptions cluster_options = storage_options(tmp);
    cluster_options.storage.snapshot_every = 8;     // checkpoint aggressively
    cluster_options.storage.wal_segment_bytes = 1024;  // many small segments
    node::LocalCluster<rsm::RsmProcess> cluster(config.n, make, cluster_options);
    ASSERT_TRUE(cluster.wait_for_mesh());
    node::ClientSession client(cluster.endpoints()[0], nullptr);
    ASSERT_TRUE(client.connect());
    constexpr std::int64_t kCommands = 40;
    for (std::int64_t c = 0; c < kCommands; ++c)
      ASSERT_TRUE(client.call(c).has_value()) << "command " << c << " lost";
    wait_all_applied(cluster, config.n, kCommands);
    live_log = cluster.node(0).applied_log();
    cluster.stop();
    obs::MetricsRegistry merged = cluster.merged_metrics();
    // The trigger fired and compaction actually dropped WAL records —
    // otherwise the recovery below is ordinary replay and proves nothing.
    ASSERT_GT(merged.counter_value("snapshot.written"), 0u);
    ASSERT_GT(merged.counter_value("wal.truncated_records"), 0u);
  }
  node::RuntimeOptions options;
  options.storage = node::StorageOptions{tmp.path() + "/r0", false};
  node::Runtime<rsm::RsmProcess> reborn(
      0, config.n, transport::Endpoint{"127.0.0.1", 0},
      [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg) { return make(env, reg, 0); },
      options);
  EXPECT_EQ(reborn.metrics().counter_value("snapshot.recovered"), 1u);
  const auto reborn_log = reborn.applied_log();
  ASSERT_GE(reborn_log.size(), live_log.size());
  for (std::size_t k = 0; k < live_log.size(); ++k)
    ASSERT_EQ(reborn_log[k], live_log[k]) << "recovered log diverges at index " << k;
}

TEST(LiveRecovery, WipedReplicaRejoinsViaSnapshotStateTransfer) {
  // A replica that lost its disk entirely rejoins a cluster whose peers
  // have COMPACTED below its (empty) state: Decide anti-entropy cannot
  // heal slots that no longer exist anywhere as slot state, so the rejoin
  // must go through the snapshot transfer path — offer, chunked fetch,
  // CRC check, install — and end prefix-consistent with everyone else.
  const consensus::SystemConfig config(3, 1, 1);
  TempDir tmp;
  node::ClusterOptions cluster_options = storage_options(tmp);
  cluster_options.storage.snapshot_every = 4;
  node::LocalCluster<rsm::RsmProcess> cluster(
      config.n,
      [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg, consensus::ProcessId) {
        return std::make_unique<rsm::RsmProcess>(env, config, rsm_options(reg));
      },
      cluster_options);
  ASSERT_TRUE(cluster.wait_for_mesh());
  node::ClientSession client(cluster.endpoints()[0], nullptr);
  ASSERT_TRUE(client.connect());

  constexpr std::int64_t kCommands = 60;
  std::int64_t c = 0;
  for (; c < kCommands / 3; ++c) ASSERT_TRUE(client.call(c).has_value());
  cluster.kill(2);
  // The surviving majority keeps committing AND keeps snapshotting: by the
  // time replica 2 returns, the cluster's compaction floor is beyond
  // everything it ever knew.
  for (; c < 2 * kCommands / 3; ++c) ASSERT_TRUE(client.call(c).has_value());
  // Replica 2 loses its disk entirely — the rebuild-from-nothing case.
  std::error_code ec;
  std::filesystem::remove_all(tmp.path() + "/r2", ec);
  ASSERT_FALSE(ec);
  cluster.restart(2);
  ASSERT_TRUE(cluster.alive(2));
  for (; c < kCommands; ++c) ASSERT_TRUE(client.call(c).has_value());

  wait_all_applied(cluster, config.n, kCommands);
  const auto log0 = cluster.node(0).applied_log();
  const auto log2 = cluster.node(2).applied_log();
  cluster.stop();
  ASSERT_EQ(log0.size(), log2.size());
  for (std::size_t k = 0; k < log0.size(); ++k)
    ASSERT_EQ(log0[k], log2[k]) << "rejoined replica diverges at applied index " << k;

  // The rejoin provably went through state transfer, not genesis replay.
  obs::MetricsRegistry merged = cluster.merged_metrics();
  EXPECT_GT(merged.counter_value("snapshot.written"), 0u);
  EXPECT_GE(merged.counter_value("transfer.installed"), 1u);
  EXPECT_GT(merged.counter_value("transfer.chunks_sent"), 0u);
}

TEST(LiveRecovery, ServerDeduplicatesRetriedRequestAcrossReconnects) {
  // Two sessions with the SAME client_id simulate a client that reconnects
  // and retries request id 1: the server must answer from its dedup cache
  // with the ORIGINAL command instead of executing the retry's payload.
  const consensus::SystemConfig config(3, 1, 1);
  node::LocalCluster<rsm::RsmProcess> cluster(
      config.n,
      [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg, consensus::ProcessId) {
        return std::make_unique<rsm::RsmProcess>(env, config, rsm_options(reg));
      });
  ASSERT_TRUE(cluster.wait_for_mesh());

  node::ClientOptions options;
  options.client_id = 77;
  std::int64_t first_value = 0;
  {
    node::ClientSession original(cluster.endpoints()[0], nullptr, options);
    ASSERT_TRUE(original.connect());
    const auto reply = original.call(5);
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(reply->ok);
    EXPECT_EQ(rsm::RsmProcess::command_payload(reply->value), 5);
    first_value = reply->value;
  }
  node::ClientSession retry(cluster.endpoints()[0], nullptr, options);
  ASSERT_TRUE(retry.connect());
  const auto replayed = retry.call(9);  // same (client_id=77, id=1), new payload
  ASSERT_TRUE(replayed.has_value());
  EXPECT_TRUE(replayed->ok);
  EXPECT_EQ(replayed->value, first_value) << "retry was re-executed, not deduplicated";
  cluster.stop();
}

TEST(CrashScheduleTest, IsSeededBoundedAndNonOverlapping) {
  const auto a = node::CrashSchedule::generate(42, 5, 2, 10'000, 400, 150);
  const auto b = node::CrashSchedule::generate(42, 5, 2, 10'000, 400, 150);
  const auto c = node::CrashSchedule::generate(43, 5, 2, 10'000, 400, 150);
  ASSERT_FALSE(a.rounds.empty());
  // Same seed, same timeline; a different seed diverges somewhere.
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  bool all_equal = a.rounds.size() == c.rounds.size();
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].at_ms, b.rounds[i].at_ms);
    EXPECT_EQ(a.rounds[i].replicas, b.rounds[i].replicas);
    if (all_equal && (a.rounds[i].at_ms != c.rounds[i].at_ms ||
                      a.rounds[i].replicas != c.rounds[i].replicas))
      all_equal = false;
  }
  EXPECT_FALSE(all_equal);

  std::int64_t prev_end = -1;
  for (const node::CrashRound& round : a.rounds) {
    // At most f distinct replicas per round, all valid ids.
    EXPECT_GE(round.replicas.size(), 1u);
    EXPECT_LE(round.replicas.size(), 2u);
    std::set<int> distinct(round.replicas.begin(), round.replicas.end());
    EXPECT_EQ(distinct.size(), round.replicas.size());
    for (const int r : round.replicas) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, 5);
    }
    // Rounds are ordered and never overlap (the <= f concurrency bound).
    EXPECT_GT(round.at_ms, prev_end);
    prev_end = round.at_ms + round.down_ms;
    EXPECT_LT(prev_end, 10'000);
  }
}

TEST(CrashScheduleTest, DegenerateInputsYieldEmptySchedules) {
  EXPECT_TRUE(node::CrashSchedule::generate(1, 0, 1, 1000, 100, 50).rounds.empty());
  EXPECT_TRUE(node::CrashSchedule::generate(1, 3, 0, 1000, 100, 50).rounds.empty());
  EXPECT_TRUE(node::CrashSchedule::generate(1, 3, 1, 100, 200, 50).rounds.empty());
}

}  // namespace
}  // namespace twostep
