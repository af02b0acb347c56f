// N6 — Survive change: client-observed availability while the cluster is
// reconfigured and loses its leader, on a live n=5 loopback RSM.
//
// One closed-loop client runs the whole experiment while the orchestrator
// walks four phases:
//
//   steady       nothing happens — the baseline gap between consecutive
//                successful commits is one RTT.
//   join         a brand-new replica (id 5) is admitted through the config
//                log and healed by snapshot state transfer; the client
//                should barely notice (the change costs one slot).
//   remove       the highest founder is retired (treat-as-crashed); again
//                one slot of the log, no availability cliff.
//   leader_kill  the Ω leader is killed outright and restarted 1 s later.
//                With the failure detector armed the survivors suspect it
//                within one jittered timeout, hand leadership to the next
//                member, and re-propose the stranded slots — so the client
//                sees a bounded gap (suspicion window + client failover),
//                not a 5Δ-per-slot ballot crawl.
//
// Per phase the artifact reports the maximum gap between consecutive
// successful commits (the unavailability window, phase edges included) and
// the RTT distribution.  After the run node::audit must hold across the
// change (applied logs slot-aligned: the joiner starts at its snapshot
// floor), and the joiner must have caught up to the founders' applied head.
//
// The claim under test (EXPERIMENTS.md § N6): membership changes cost one
// consensus slot, not an outage — and a dead leader costs one bounded
// suspicion window.  The summary's unavailability_us (worst gap across the
// join/remove/leader_kill phases) is gated in CI by
// scripts/check_obs_artifacts.py n6 [--max-unavailability-us U].
//
// Artifact: BENCH_n6_reconfig.json (schema twostep-bench/1), one row per
// phase plus a "summary" row.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "node/audit.hpp"
#include "node/client.hpp"
#include "node/local_cluster.hpp"
#include "rsm/rsm.hpp"

namespace {

using namespace twostep;
using consensus::ProcessId;
using consensus::SystemConfig;

constexpr int kN = 5, kE = 1, kF = 2;
constexpr int kVictim = kN - 1;   // the founder retired in the remove phase
constexpr int kLeader = 0;        // killed in the leader_kill phase
constexpr sim::Tick kLiveDeltaUs = 50'000;

// Phase boundaries, microseconds from workload start.
constexpr std::int64_t kJoinAtUs = 2'000'000;
constexpr std::int64_t kRemoveAtUs = 4'500'000;
constexpr std::int64_t kKillAtUs = 6'500'000;
constexpr std::int64_t kLeaderDownUs = 1'000'000;
constexpr std::int64_t kEndAtUs = 9'500'000;

// Snapshots must be on: the joiner is healed by state transfer, and the
// survivors' compaction keeps the transferred image small.
constexpr std::uint64_t kSnapshotEvery = 2'048;
constexpr std::uint64_t kWalSegmentBytes = 512 * 1024;

// The client's per-attempt budget bounds its contribution to the
// unavailability window: a dead proxy costs at most this long before the
// session redials the next replica and resends.
constexpr std::int64_t kAttemptTimeoutMs = 250;

struct PhaseResult {
  const char* name = "";
  std::int64_t begin_us = 0;
  std::int64_t end_us = 0;
  std::int64_t ok = 0;           ///< successful commits inside the window
  std::int64_t max_gap_us = 0;   ///< longest commit-free interval, edges included
  obs::HistogramSnapshot rtt;
};

std::string fresh_storage_dir() {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "twostep-n6-XXXXXX").string();
  if (!::mkdtemp(tmpl.data())) return {};
  return tmpl;
}

node::LocalCluster<rsm::RsmProcess>::Factory make_factory(const SystemConfig& config) {
  return [config](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg, ProcessId) {
    rsm::Options options;
    options.delta = kLiveDeltaUs;
    options.leader_of = [] { return ProcessId{0}; };
    options.probe.metrics = &reg;
    return std::make_unique<rsm::RsmProcess>(env, config, options);
  };
}

void print_tables() {
  std::printf(
      "N6: live reconfiguration + leader failover on the n=%d RSM — replace a replica "
      "and kill the leader under a closed-loop client, measure the availability gaps\n",
      kN);

  const SystemConfig config{kN, kF, kE};
  const std::string dir = fresh_storage_dir();
  if (dir.empty()) {
    std::printf("n6: mkdtemp failed\n");
    return;
  }

  node::ClusterOptions cluster_options;
  cluster_options.storage.dir = dir;
  cluster_options.storage.fsync = true;
  cluster_options.storage.group_commit_us = 200;
  cluster_options.storage.snapshot_every = kSnapshotEvery;
  cluster_options.storage.wal_segment_bytes = kWalSegmentBytes;
  cluster_options.failover.enabled = true;
  cluster_options.failover.period_us = 25'000;
  node::LocalCluster<rsm::RsmProcess> cluster(kN, make_factory(config), cluster_options);
  if (!cluster.wait_for_mesh()) {
    std::printf("n6: mesh did not form\n");
    cluster.stop();
    return;
  }

  // Closed-loop client: one command at a time across the whole experiment,
  // logging (completion offset, rtt) for every success.  Joined before the
  // samples are read, so no locking.
  std::atomic<bool> stop{false};
  std::vector<std::pair<std::int64_t, std::int64_t>> commits;  // (offset_us, rtt_us)
  commits.reserve(1 << 16);
  std::vector<std::int64_t> acked;
  std::int64_t issued = 0;
  std::int64_t client_lost = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto offset_us = [&t0] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  obs::MetricsRegistry client_metrics;
  std::thread client_thread([&] {
    node::ClientOptions options;
    options.attempt_timeout_ms = kAttemptTimeoutMs;
    options.request_timeout_ms = 5'000;
    node::ClientSession client(cluster.endpoints(), &client_metrics, options);
    if (!client.connect()) return;
    for (; !stop.load(std::memory_order_relaxed); ++issued) {
      const std::int64_t before = offset_us();
      const auto reply = client.call(issued);
      if (reply && reply->ok) {
        commits.emplace_back(offset_us(), offset_us() - before);
        acked.push_back(issued);
      } else {
        ++client_lost;
      }
    }
  });

  // Orchestrator: walk the phase timeline against the same clock.
  const auto sleep_until_offset = [&](std::int64_t at_us) {
    std::this_thread::sleep_until(t0 + std::chrono::microseconds(at_us));
  };
  sleep_until_offset(kJoinAtUs);
  const int joiner = cluster.add_replica();
  sleep_until_offset(kRemoveAtUs);
  const bool removed = cluster.remove_replica(kVictim);
  sleep_until_offset(kKillAtUs);
  cluster.kill(kLeader);
  sleep_until_offset(kKillAtUs + kLeaderDownUs);
  cluster.restart(kLeader);
  sleep_until_offset(kEndAtUs);
  stop.store(true, std::memory_order_relaxed);
  client_thread.join();

  // Post-run audit: every live member drains to a common applied head (the
  // joiner from its snapshot floor), then the shared safety audit.
  const bool joiner_healed =
      joiner >= 0 && node::drain(cluster, acked, joiner, std::chrono::seconds(15));
  const bool audit_ok =
      joiner >= 0 &&
      node::audit(node::applied_logs(cluster), acked,
                  [issued](std::int64_t payload) { return payload >= 0 && payload < issued; })
          .empty();
  cluster.stop();

  // Slice the commit stream into the phase windows.
  const PhaseResult phases_init[] = {
      {"steady", 0, kJoinAtUs, 0, 0, {}},
      {"join", kJoinAtUs, kRemoveAtUs, 0, 0, {}},
      {"remove", kRemoveAtUs, kKillAtUs, 0, 0, {}},
      {"leader_kill", kKillAtUs, kEndAtUs, 0, 0, {}},
  };
  std::vector<PhaseResult> phases(std::begin(phases_init), std::end(phases_init));
  for (PhaseResult& phase : phases) {
    obs::LogHistogram rtt;
    std::int64_t last = phase.begin_us;
    for (const auto& [at, rtt_us] : commits) {
      if (at < phase.begin_us || at >= phase.end_us) continue;
      ++phase.ok;
      phase.max_gap_us = std::max(phase.max_gap_us, at - last);
      last = at;
      rtt.record(rtt_us);
    }
    phase.max_gap_us = std::max(phase.max_gap_us, phase.end_us - last);
    phase.rtt = rtt.snapshot();
  }

  util::Table t({"phase", "commits", "max gap ms", "rtt p50 us", "rtt p99 us"});
  t.set_title("N6 reconfig + failover: client availability per phase");
  for (const PhaseResult& phase : phases)
    t.add_row({phase.name, std::to_string(phase.ok),
               std::to_string(phase.max_gap_us / 1000),
               std::to_string(static_cast<long>(phase.rtt.p50)),
               std::to_string(static_cast<long>(phase.rtt.p99))});
  bench::emit(t);

  const std::int64_t unavailability_us =
      std::max({phases[1].max_gap_us, phases[2].max_gap_us, phases[3].max_gap_us});
  const bool ok = joiner >= 0 && removed && joiner_healed && audit_ok && client_lost == 0 &&
                  phases[0].ok > 0 && phases[3].ok > 0;
  std::printf("n6: joiner %d %s, victim %d removed=%s, leader killed/restarted, "
              "worst unavailability %lld ms, audit %s\n",
              joiner, joiner_healed ? "healed" : "NOT HEALED", kVictim,
              removed ? "yes" : "NO", static_cast<long long>(unavailability_us / 1000),
              audit_ok ? "clean" : "DIRTY");

  bench::BenchArtifact artifact("n6_reconfig");
  for (const PhaseResult& phase : phases)
    artifact.add_row()
        .str("kind", phase.name)
        .num("commits", phase.ok)
        .num("max_gap_us", phase.max_gap_us)
        .hist("rtt_us", phase.rtt);
  artifact.add_row()
      .str("kind", "summary")
      .num("unavailability_us", unavailability_us)
      .num("leader_kill_gap_us", phases[3].max_gap_us)
      .num("client_lost", client_lost)
      .flag("joiner_healed", joiner_healed)
      .flag("audit_ok", audit_ok)
      .flag("ok", ok);
  artifact.write();

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
