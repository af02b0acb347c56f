// N5 — Rejoin cost of a wiped replica: snapshot state transfer vs genesis
// replay on a live n=5 loopback cluster.
//
// The scenario both runs share: bring up five replicas, kill one, pump a
// large open-loop workload (~100k commands) through the survivors, wipe
// the dead replica's storage directory, restart it, and time how long it
// takes to hold the complete applied log again.
//
//   - Genesis baseline (snapshot-every = 0): the survivors retain their
//     full WAL, and the reborn replica is healed by decide anti-entropy —
//     its reconnects' Catchup exchange reports applied prefix 0, so every
//     peer re-streams each decided slot from slot 0.  The rejoin cost is
//     proportional to the entire history.
//   - Snapshot run (snapshot-every = kSnapshotEvery, small WAL segments):
//     the survivors checkpoint and truncate while the replica is down, so
//     on reconnect they cannot replay from genesis even in principle —
//     they offer their latest snapshot instead.  The reborn replica
//     installs it over kSnapshotChunk frames and replays only the tail
//     above the snapshot floor.  The rejoin cost is proportional to the
//     snapshot size + tail, not the history length.
//
// The claim under test (EXPERIMENTS.md "Snapshots & rejoin"): the
// snapshot rejoin is bounded and strictly faster than genesis replay
// (rejoin_ratio = snapshot_us / genesis_us < 1), with the applied-log
// audit clean — the reborn replica's log is byte-identical to a
// survivor's.
//
// Artifact: BENCH_n5_rejoin.json (schema twostep-bench/1), one row per
// run (kind = "genesis_baseline" / "snapshot_rejoin") plus a "summary"
// row carrying rejoin_ratio, validated by
// scripts/check_obs_artifacts.py n5 [--max-rejoin-ratio X].
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
#include "node/loadgen.hpp"
#include "node/local_cluster.hpp"
#include "rsm/rsm.hpp"

namespace {

using namespace twostep;
using consensus::ProcessId;
using consensus::SystemConfig;

constexpr int kN = 5, kE = 1, kF = 2;
constexpr int kVictim = 4;  // never the leader (leader_of == 0)
constexpr sim::Tick kLiveDeltaUs = 100'000;

// Saturation stack, tuned for this scenario: modest batches so the
// ~100k-command history spans >= ~10k consensus slots — genesis replay
// must stream (and the reborn replica must re-log) a history that is
// honestly proportional to the command count, not 1.5k mega-batches.
constexpr int kBatchMax = 8;
constexpr sim::Tick kBatchLingerUs = 200;
constexpr int kPipelineWindow = 64;
constexpr int kGroupCommitUs = 200;

// Workload: ~100k commands offered while the victim is down.
constexpr std::int64_t kRate = 20'000;
constexpr std::int64_t kDurationMs = 5'000;
constexpr std::int64_t kDrainMs = 2'000;
constexpr int kSessions = 512;
constexpr int kConnections = 8;

// Snapshot-run knobs: checkpoint often (the trigger counts WAL records,
// a few per slot) and roll segments aggressively so the survivors'
// compaction floor races far past the wiped replica.
constexpr std::uint64_t kSnapshotEvery = 4'096;
constexpr std::uint64_t kWalSegmentBytes = 512 * 1024;

constexpr std::int64_t kRejoinTimeoutMs = 120'000;
// How long the snapshot run waits past rejoin for transfer.installed: the
// re-persist can finish after the log is complete, but the Decides alone
// may also heal the log with no install at all.
constexpr std::int64_t kInstallGraceMs = 2'000;

struct RunResult {
  bool ok = false;             ///< workload + rejoin + audit all clean
  bool audit_ok = false;       ///< reborn log == survivor log, exactly
  std::int64_t commands = 0;   ///< acked commands in the applied log
  double rejoin_us = 0;        ///< restart() -> full applied log
  // The snapshot rejoin's phases, from restart(), read off the reborn
  // replica's transfer.* counters (-1: the phase never happened, as in the
  // genesis run).  An accepted offer sends the first transfer.requests;
  // transfer.installed counts once the snapshot is installed and
  // re-persisted.  The tail above the floor applies from Decides held
  // while the transfer ran, so the log can be complete before the
  // re-persist ends: the tail is then 0.
  double offer_us = -1;
  double installed_us = -1;
  obs::HistogramSnapshot rtt;  ///< workload RTT while the victim is down
  std::uint64_t snapshots_written = 0;
  std::uint64_t wal_truncated_records = 0;
  std::uint64_t transfers_installed = 0;
  std::uint64_t transfer_bytes = 0;
  std::uint64_t transfer_chunks = 0;
};

node::LocalCluster<rsm::RsmProcess>::Factory make_factory(const SystemConfig& config) {
  return [config](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg, ProcessId) {
    rsm::Options options;
    options.delta = kLiveDeltaUs;
    options.leader_of = [] { return ProcessId{0}; };
    options.probe.metrics = &reg;
    options.batch_max = kBatchMax;
    options.batch_linger = kBatchLingerUs;
    options.pipeline_window = kPipelineWindow;
    return std::make_unique<rsm::RsmProcess>(env, config, options);
  };
}

std::string fresh_storage_dir(const char* tag) {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / (std::string("twostep-n5-") + tag + "-XXXXXX"))
          .string();
  if (!::mkdtemp(tmpl.data())) return {};
  return tmpl;
}

/// One full kill/load/wipe/restart cycle.  `snapshots` selects the run:
/// false = genesis baseline, true = checkpoint + truncate while down.
RunResult run_cycle(bool snapshots) {
  RunResult out;
  const SystemConfig config{kN, kF, kE};
  const std::string dir = fresh_storage_dir(snapshots ? "snap" : "genesis");
  if (dir.empty()) return out;

  node::ClusterOptions cluster_options;
  cluster_options.storage.dir = dir;
  cluster_options.storage.fsync = true;
  cluster_options.storage.group_commit_us = kGroupCommitUs;
  if (snapshots) {
    cluster_options.storage.snapshot_every = kSnapshotEvery;
    cluster_options.storage.wal_segment_bytes = kWalSegmentBytes;
  }
  node::LocalCluster<rsm::RsmProcess> cluster(kN, make_factory(config), cluster_options);
  if (!cluster.wait_for_mesh()) {
    cluster.stop();
    return out;
  }

  // Down the victim, then pump the workload through the survivors only.
  cluster.kill(kVictim);
  std::vector<transport::Endpoint> survivors(cluster.endpoints().begin(),
                                             cluster.endpoints().end() - 1);
  node::LoadgenOptions gen_options;
  gen_options.rate = kRate;
  gen_options.sessions = kSessions;
  gen_options.connections = kConnections;
  gen_options.duration_ms = kDurationMs;
  gen_options.drain_ms = kDrainMs;
  gen_options.poisson = true;
  gen_options.seed = snapshots ? 7 : 11;
  node::OpenLoopLoadgen gen(survivors, gen_options);
  const node::LoadResult result = gen.run();
  out.rtt = result.rtt;
  out.commands = result.ok;
  const bool load_ok = result.ok > 0 && result.lost == 0;

  // Let every survivor finish applying, and fix the rejoin target: the
  // leader's applied log is the history the reborn replica must recover.
  node::drain(cluster, gen.acked_payloads(), -1, std::chrono::seconds(30));
  const std::size_t target = cluster.node(0).applied_log().size();

  // Wipe the victim's storage so both runs rejoin from nothing, then time
  // the restart until its applied log holds the full history.
  std::error_code ec;
  std::filesystem::remove_all(dir + "/r" + std::to_string(kVictim), ec);
  const auto t0 = std::chrono::steady_clock::now();
  cluster.restart(kVictim);
  const auto deadline = t0 + std::chrono::milliseconds(kRejoinTimeoutMs);
  const auto since_t0_us = [&t0] {
    return static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
  };
  bool rejoined = false;
  auto install_deadline = deadline;
  while (std::chrono::steady_clock::now() < deadline) {
    auto& reborn = cluster.node(kVictim);
    if (out.offer_us < 0 && reborn.metrics().counter_value("transfer.requests") > 0)
      out.offer_us = since_t0_us();
    if (out.installed_us < 0 && reborn.metrics().counter_value("transfer.installed") > 0)
      out.installed_us = since_t0_us();
    if (!rejoined && reborn.applied_log().size() >= target) {
      rejoined = true;
      out.rejoin_us = since_t0_us();
      install_deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(kInstallGraceMs);
    }
    if (rejoined && (!snapshots || out.installed_us >= 0 ||
                     std::chrono::steady_clock::now() >= install_deadline))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!rejoined) out.rejoin_us = since_t0_us();

  // Audit: the shared safety audit over every replica, and the reborn
  // replica's log must start where the leader's does — a full history,
  // not a slot-offset suffix.
  const std::vector<node::AppliedLog> logs = node::applied_logs(cluster);
  out.audit_ok = rejoined && !logs[0].empty() && !logs[kVictim].empty() &&
                 logs[kVictim].front().first == logs[0].front().first &&
                 node::audit(logs, gen.acked_payloads(), [&gen](std::int64_t payload) {
                   return gen.issued(payload);
                 }).empty();

  cluster.stop();
  obs::MetricsRegistry merged = cluster.merged_metrics();
  out.snapshots_written = merged.counter_value("snapshot.written");
  out.wal_truncated_records = merged.counter_value("wal.truncated_records");
  out.transfers_installed = merged.counter_value("transfer.installed");
  out.transfer_bytes = merged.counter_value("transfer.bytes_sent");
  out.transfer_chunks = merged.counter_value("transfer.chunks_sent");
  out.ok = load_ok && rejoined && out.audit_ok;
  std::filesystem::remove_all(dir, ec);
  return out;
}

void add_run_row(bench::BenchArtifact& artifact, const char* kind, const RunResult& r) {
  artifact.add_row()
      .str("kind", kind)
      .num("commands", r.commands)
      .num("rejoin_us", r.rejoin_us)
      .num("offer_us", r.offer_us)
      .num("installed_us", r.installed_us)
      .num("snapshots_written", static_cast<std::int64_t>(r.snapshots_written))
      .num("wal_truncated_records", static_cast<std::int64_t>(r.wal_truncated_records))
      .num("transfers_installed", static_cast<std::int64_t>(r.transfers_installed))
      .num("transfer_bytes", static_cast<std::int64_t>(r.transfer_bytes))
      .num("transfer_chunks", static_cast<std::int64_t>(r.transfer_chunks))
      .flag("ok", r.ok)
      .flag("audit_ok", r.audit_ok)
      .hist("rtt_us", r.rtt);
}

void print_tables() {
  std::printf("N5: wiped-replica rejoin on the live n=%d RSM — snapshot state transfer "
              "(every %llu cmds, %llu-byte segments) vs genesis decide replay\n",
              kN, static_cast<unsigned long long>(kSnapshotEvery),
              static_cast<unsigned long long>(kWalSegmentBytes));

  const RunResult genesis = run_cycle(false);
  const RunResult snap = run_cycle(true);

  util::Table t({"run", "commands", "rejoin ms", "offer ms", "installed ms", "tail ms",
                 "snapshots", "truncated recs", "transfers in", "transfer KiB", "ok", "audit"});
  t.set_title("N5 rejoin: snapshot transfer vs genesis replay");
  const auto ms = [](double us) {
    return us < 0 ? std::string("-") : std::to_string(static_cast<long>(us / 1000.0));
  };
  const auto row = [&](const char* name, const RunResult& r) {
    t.add_row({name, std::to_string(r.commands), ms(r.rejoin_us), ms(r.offer_us),
               ms(r.installed_us),
               ms(r.installed_us < 0 ? -1 : std::max(0.0, r.rejoin_us - r.installed_us)),
               std::to_string(r.snapshots_written), std::to_string(r.wal_truncated_records),
               std::to_string(r.transfers_installed),
               std::to_string(r.transfer_bytes / 1024), r.ok ? "yes" : "NO",
               r.audit_ok ? "clean" : "DIRTY"});
  };
  row("genesis replay", genesis);
  row("snapshot rejoin", snap);
  bench::emit(t);

  const double ratio = genesis.rejoin_us > 0 ? snap.rejoin_us / genesis.rejoin_us : 0;
  std::printf("rejoin: genesis %.0f ms, snapshot %.0f ms — ratio %.2f "
              "(snapshot run wrote %llu snapshots, truncated %llu records)\n",
              genesis.rejoin_us / 1000.0, snap.rejoin_us / 1000.0, ratio,
              static_cast<unsigned long long>(snap.snapshots_written),
              static_cast<unsigned long long>(snap.wal_truncated_records));

  bench::BenchArtifact artifact("n5_rejoin");
  add_run_row(artifact, "genesis_baseline", genesis);
  add_run_row(artifact, "snapshot_rejoin", snap);
  artifact.add_row()
      .str("kind", "summary")
      .num("genesis_rejoin_us", genesis.rejoin_us)
      .num("snapshot_rejoin_us", snap.rejoin_us)
      .num("rejoin_ratio", ratio)
      .flag("ok", genesis.ok && snap.ok)
      .flag("audit_ok", genesis.audit_ok && snap.audit_ok);
  artifact.write();
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
