// N2 — RSM throughput and client-observed latency on a real loopback TCP
// cluster while replicas crash, recover from their write-ahead logs, and the
// network misbehaves (n=3, e=1, f=1, fixed leader 0):
//
//   baseline      no storage, no faults — the undisturbed closed loop
//   wal           durable acceptor WAL on every replica, no faults — the
//                 price of the persist-before-send discipline
//   kills         WAL + a seeded kill/restart schedule (<= f down at once);
//                 the client fails over when its proxy dies
//   kills+chaos   kills + seeded frame drop/duplicate/delay on every link
//
// Every config runs the same seeded command stream with a small think time
// so crash rounds land mid-stream.  "recovered slots" counts per-slot
// acceptor records replayed from WALs across all restarts — the proof the
// reborn replicas rejoined from disk rather than cold.  "violations" counts
// what node::audit reports (agreement, validity, durability); the paper's
// safety claims require it to be 0 in every row.
#include <chrono>
#include <cstdlib>
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

constexpr int kN = 3;
constexpr int kE = 1;
constexpr int kF = 1;
constexpr sim::Tick kLiveDeltaUs = 100'000;
constexpr std::int64_t kCommands = 400;
constexpr std::int64_t kThinkUs = 1'000;
constexpr std::uint64_t kSeed = 7;
constexpr std::int64_t kKillPeriodMs = 250;
constexpr std::int64_t kDownMs = 100;

struct Config {
  std::string name;
  bool storage = false;
  bool kills = false;
  transport::ChaosConfig chaos;
};

struct Row {
  std::string name;
  std::int64_t ok = 0;
  std::int64_t lost = 0;
  double elapsed_s = 0;
  obs::HistogramSnapshot rtt;  ///< client-observed RTTs (µs)
  std::uint64_t failovers = 0;
  std::uint64_t kills = 0;
  std::uint64_t recovered_slots = 0;
  std::uint64_t wal_syncs = 0;
  int violations = 0;
};

class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "twostep-n2-XXXXXX").string();
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

Row run_config(const Config& config) {
  Row row;
  row.name = config.name;
  const SystemConfig system{kN, kF, kE};
  TempDir tmp;

  node::ClusterOptions cluster_options;
  if (config.storage) {
    cluster_options.storage.dir = tmp.path();
    cluster_options.storage.fsync = false;  // protocol cost of logging, not the device's
  }
  cluster_options.chaos = config.chaos;
  node::LocalCluster<rsm::RsmProcess> cluster(
      kN,
      [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg, ProcessId) {
        rsm::Options options;
        options.delta = kLiveDeltaUs;
        options.leader_of = [] { return ProcessId{0}; };
        options.probe.metrics = &reg;
        return std::make_unique<rsm::RsmProcess>(env, system, options);
      },
      cluster_options);
  if (!cluster.wait_for_mesh()) {
    row.name += " (NO MESH)";
    return row;
  }

  // Crash driver: replays the seeded schedule until the workload finishes,
  // always restarting what it killed so the run ends fully replicated.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> kill_count{0};
  std::thread driver;
  if (config.kills) {
    const auto schedule = node::CrashSchedule::generate(
        kSeed, kN, kF, /*duration_ms=*/10 * 60 * 1000, kKillPeriodMs, kDownMs);
    driver = std::thread([&cluster, &done, &kill_count, schedule] {
      const auto start = std::chrono::steady_clock::now();
      for (const node::CrashRound& round : schedule.rounds) {
        const auto at = start + std::chrono::milliseconds(round.at_ms);
        while (std::chrono::steady_clock::now() < at) {
          if (done.load(std::memory_order_relaxed)) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        for (const int r : round.replicas) cluster.kill(r);
        kill_count.fetch_add(round.replicas.size(), std::memory_order_relaxed);
        const auto up = at + std::chrono::milliseconds(round.down_ms);
        while (std::chrono::steady_clock::now() < up)
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        for (const int r : round.replicas) cluster.restart(r);
        if (done.load(std::memory_order_relaxed)) return;
      }
    });
  }

  obs::MetricsRegistry client_metrics;
  node::ClientSession client(cluster.endpoints(), &client_metrics);
  std::vector<std::int64_t> acked;
  const auto start = std::chrono::steady_clock::now();
  if (client.connect()) {
    for (std::int64_t c = 0; c < kCommands; ++c) {
      if (kThinkUs > 0) std::this_thread::sleep_for(std::chrono::microseconds(kThinkUs));
      const auto reply = client.call(c);
      if (!reply) {
        ++row.lost;
        if (!client.connect()) break;
        continue;
      }
      if (reply->ok) {
        ++row.ok;
        acked.push_back(c);
      }
    }
  } else {
    row.name += " (NO CLIENT)";
  }
  row.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  done.store(true, std::memory_order_relaxed);
  if (driver.joinable()) driver.join();

  // Let the reborn replicas catch up, then audit.
  node::drain(cluster, acked);
  row.violations = static_cast<int>(
      node::audit(node::applied_logs(cluster), acked,
                  [](std::int64_t payload) { return payload >= 0 && payload < kCommands; })
          .size());

  cluster.stop();
  obs::MetricsRegistry merged = cluster.merged_metrics();
  row.rtt = client_metrics.log_histogram_snapshot("client.rtt_us");
  row.failovers = client_metrics.counter_value("client.failovers");
  row.kills = kill_count.load(std::memory_order_relaxed);
  row.recovered_slots = merged.counter_value("recover.slots");
  row.wal_syncs = merged.counter_value("wal.syncs");
  bench::emit_metrics("n2_" + config.name, merged);
  return row;
}

void print_tables() {
  transport::ChaosConfig chaos;
  chaos.drop_rate = 0.02;
  chaos.duplicate_rate = 0.02;
  chaos.delay_rate = 0.05;
  chaos.delay_max_us = 2'000;
  chaos.seed = kSeed;
  const std::vector<Config> configs = {
      {"baseline", false, false, {}},
      {"wal", true, false, {}},
      {"kills", true, true, {}},
      {"kills+chaos", true, true, chaos},
  };

  util::Table t({"config", "acked", "lost", "cmds/s", "rtt p50", "rtt p99", "failovers",
                 "kills", "recovered slots", "wal syncs", "violations"});
  t.set_title("N2 — live RSM under crash-recovery chaos: loopback TCP, n=3, e=1, f=1, " +
              std::to_string(kCommands) + " closed-loop commands");
  bench::BenchArtifact artifact("n2_chaos_live");
  // Sequential on purpose: each run spawns n event-loop threads plus a crash
  // driver, and the RTT samples must not contend with a sibling cluster.
  for (const Config& config : configs) {
    Row row = run_config(config);
    const double rate = row.elapsed_s > 0 ? static_cast<double>(row.ok) / row.elapsed_s : 0;
    t.add_row({row.name, std::to_string(row.ok), std::to_string(row.lost),
               util::Table::num(rate, 0),
               row.rtt.count == 0 ? "-" : util::Table::num(row.rtt.p50, 0) + " us",
               row.rtt.count == 0 ? "-" : util::Table::num(row.rtt.p99, 0) + " us",
               std::to_string(row.failovers), std::to_string(row.kills),
               std::to_string(row.recovered_slots), std::to_string(row.wal_syncs),
               std::to_string(row.violations)});
    artifact.add_row()
        .str("config", row.name)
        .num("acked", row.ok)
        .num("lost", row.lost)
        .num("cmds_per_s", rate)
        .num("rtt_p50_us", row.rtt.p50)
        .num("rtt_p99_us", row.rtt.p99)
        .hist("rtt_us", row.rtt)
        .num("failovers", row.failovers)
        .num("kills", row.kills)
        .num("recovered_slots", row.recovered_slots)
        .num("wal_syncs", row.wal_syncs)
        .num("violations", row.violations);
  }
  bench::emit(t);
  artifact.write();
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
