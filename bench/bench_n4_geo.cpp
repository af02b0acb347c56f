// N4 — Per-region commit latency under emulated WAN links (live cluster).
//
// The geo subsystem (geo::LatencyMatrix + the transport's chaos delay
// stage) turns an n-replica loopback cluster into an n-site multi-region
// deployment: every peer frame from replica p to q gains the one-way delay
// between their regions plus seeded jitter, while client connections stay
// local — a client pinned to replica r observes exactly what a client in
// r's region would.  This bench sweeps
//
//   protocol   task | object | fastpaxos | epaxos   (one replica per region)
//   placement  us-eu (4 regions) | global (5 regions)
//   conflict   off | on
//
// and reports the client-observed commit latency quantiles per region.
// The story under test: the leader/proxy protocols answer fast only near
// the quorum's center of mass, while leaderless EPaxos commits from every
// region at its local fast-quorum RTT — until commands interfere, which
// buys its slow path back.
//
// Conflict dials per protocol family:
//   - one-shot protocols (task/object/fastpaxos): every region proposes
//     concurrently; without conflict all propose the same value (the
//     unanimous pattern the fast path carries), with conflict each region
//     proposes its own value.
//   - epaxos: per-region closed-loop clients run concurrently; without
//     conflict commands live on globally distinct keys (no interference),
//     with conflict every command shares one key (total interference).
//
// WAN delays are scaled down (TWOSTEP_BENCH_N4_SCALE, default 0.02: 75 ms
// links become 1.5 ms) so CI finishes in seconds; the topology's *shape* —
// who is near which quorum — is scale-invariant.  Artifact:
// BENCH_n4_geo.json (schema twostep-bench/1), one row per
// (protocol, placement, conflict, region).
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "core/two_step.hpp"
#include "epaxos/host.hpp"
#include "fastpaxos/fast_paxos.hpp"
#include "geo/latency_matrix.hpp"
#include "node/client.hpp"
#include "node/local_cluster.hpp"

namespace {

using namespace twostep;
using consensus::ProcessId;
using consensus::SystemConfig;

constexpr int kE = 1;
constexpr int kF = 1;
/// Live Δ: far above any scaled WAN round trip, so retries never pollute
/// the latency samples.
constexpr sim::Tick kLiveDeltaUs = 400'000;
constexpr int kOneShotReps = 6;
constexpr std::int64_t kEpaxosCommandsPerRegion = 25;

double env_scale() {
  const char* v = std::getenv("TWOSTEP_BENCH_N4_SCALE");
  if (v == nullptr || *v == '\0') return 0.02;
  const double parsed = std::atof(v);
  return parsed > 0 ? parsed : 0.02;
}

/// One replica per region of the placement preset, with the matrix wired
/// into the cluster's chaos stage.
node::ClusterOptions geo_cluster_options(const std::string& placement, double scale) {
  auto matrix = std::make_shared<const geo::LatencyMatrix>(
      geo::LatencyMatrix::preset(placement, scale));
  node::ClusterOptions options;
  options.chaos.geo_regions =
      geo::round_robin_placement(static_cast<int>(matrix->size()), *matrix);
  options.chaos.geo = std::move(matrix);
  options.chaos.seed = 1;
  return options;
}

/// Per-region outcome of one sweep cell.
struct RegionLatency {
  obs::HistogramSnapshot rtt;     ///< client-observed commit latency (µs)
  std::int64_t undecided = 0;     ///< calls with no usable decision
};

/// One-shot cell: kOneShotReps fresh clusters; per repetition every region
/// proposes concurrently (same value without conflict, distinct values
/// with), and each client's RTT is its region's sample.
template <typename P, typename MakeProc>
std::vector<RegionLatency> one_shot_cell(int n, const MakeProc& make,
                                         const node::ClusterOptions& options, bool conflict) {
  std::vector<obs::LogHistogram> rtt(static_cast<std::size_t>(n));
  std::vector<RegionLatency> out(static_cast<std::size_t>(n));
  for (int rep = 0; rep < kOneShotReps; ++rep) {
    node::LocalCluster<P> cluster(n, make, options);
    if (!cluster.wait_for_mesh()) {
      for (auto& r : out) ++r.undecided;
      continue;
    }
    std::vector<std::thread> clients;
    for (int r = 0; r < n; ++r) {
      clients.emplace_back([&, r] {
        obs::MetricsRegistry metrics;
        node::ClientSession client(cluster.endpoints()[static_cast<std::size_t>(r)],
                                   &metrics);
        const std::int64_t value = conflict ? 1000 + r : 1000;
        bool decided = false;
        if (client.connect()) {
          const auto reply = client.call(value);
          decided = reply.has_value() && reply->ok;
        }
        if (decided) {
          const auto sample = metrics.log_histogram_snapshot("client.rtt_us");
          if (sample.count > 0)
            rtt[static_cast<std::size_t>(r)].record(static_cast<std::int64_t>(sample.max));
        } else {
          ++out[static_cast<std::size_t>(r)].undecided;
        }
      });
    }
    for (auto& c : clients) c.join();
    cluster.stop();
  }
  for (int r = 0; r < n; ++r)
    out[static_cast<std::size_t>(r)].rtt = rtt[static_cast<std::size_t>(r)].snapshot();
  return out;
}

/// EPaxos cell: one cluster, one concurrent closed-loop client per region.
/// Payloads are globally unique (region * 2^20 + i); the conflict dial is
/// the host's key policy (see epaxos::HostOptions::key_mod).
std::vector<RegionLatency> epaxos_cell(int n, const node::ClusterOptions& options,
                                       bool conflict) {
  const SystemConfig config{n, kF, kE};
  std::vector<RegionLatency> out(static_cast<std::size_t>(n));
  node::LocalCluster<epaxos::EPaxosRsm> cluster(
      n,
      [=](consensus::Env<epaxos::Message>& env, obs::MetricsRegistry& reg, ProcessId) {
        epaxos::HostOptions host;
        host.protocol.delta = kLiveDeltaUs;
        host.protocol.probe.metrics = &reg;
        // No crashes in this bench; keys on a wide modulus are collision-
        // free because every payload is below it and globally unique.
        host.key_mod = conflict ? 0 : (std::int64_t{1} << 30);
        return std::make_unique<epaxos::EPaxosRsm>(env, config, host);
      },
      options);
  if (!cluster.wait_for_mesh()) {
    for (auto& r : out) r.undecided = kEpaxosCommandsPerRegion;
    return out;
  }
  std::vector<std::thread> clients;
  for (int r = 0; r < n; ++r) {
    clients.emplace_back([&, r] {
      obs::MetricsRegistry metrics;
      node::ClientSession client(cluster.endpoints()[static_cast<std::size_t>(r)], &metrics);
      if (!client.connect()) {
        out[static_cast<std::size_t>(r)].undecided = kEpaxosCommandsPerRegion;
        return;
      }
      const auto result = client.run_closed_loop(
          kEpaxosCommandsPerRegion,
          [r](std::int64_t i) { return static_cast<std::int64_t>(r) * (1 << 20) + i; });
      out[static_cast<std::size_t>(r)].rtt = result.rtt;
      out[static_cast<std::size_t>(r)].undecided = result.lost + result.rejected;
    });
  }
  for (auto& c : clients) c.join();
  cluster.stop();
  return out;
}

std::vector<RegionLatency> run_cell(const std::string& protocol, int n,
                                    const node::ClusterOptions& options, bool conflict) {
  const SystemConfig config{n, kF, kE};
  if (protocol == "epaxos") return epaxos_cell(n, options, conflict);
  if (protocol == "fastpaxos") {
    return one_shot_cell<fastpaxos::FastPaxosProcess>(
        n,
        [=](consensus::Env<fastpaxos::Message>& env, obs::MetricsRegistry& reg, ProcessId) {
          fastpaxos::Options opt;
          opt.delta = kLiveDeltaUs;
          opt.leader_of = [] { return ProcessId{0}; };
          opt.probe.metrics = &reg;
          return std::make_unique<fastpaxos::FastPaxosProcess>(env, config, opt);
        },
        options, conflict);
  }
  const core::Mode mode = protocol == "task" ? core::Mode::kTask : core::Mode::kObject;
  return one_shot_cell<core::TwoStepProcess>(
      n,
      [=](consensus::Env<core::Message>& env, obs::MetricsRegistry& reg, ProcessId) {
        core::Options opt;
        opt.mode = mode;
        opt.delta = kLiveDeltaUs;
        opt.leader_of = [] { return ProcessId{0}; };
        opt.probe.metrics = &reg;
        return std::make_unique<core::TwoStepProcess>(env, config, opt);
      },
      options, conflict);
}

void print_tables() {
  const double scale = env_scale();
  const std::vector<std::string> protocols = {"task", "object", "fastpaxos", "epaxos"};
  const std::vector<std::string> placements = {"us-eu", "global"};

  util::Table t({"protocol", "placement", "conflict", "region", "samples", "p50", "p90",
                 "p99", "undecided"});
  char title[160];
  std::snprintf(title, sizeof(title),
                "N4 — per-region commit latency, emulated WAN links (e=1 f=1, scale %.3g)",
                scale);
  t.set_title(title);
  bench::BenchArtifact artifact("n4_geo");

  // Live clusters spawn one event-loop thread per replica plus one client
  // thread per region; cells run sequentially so samples never contend
  // with a sibling cluster for cores.
  for (const std::string& placement : placements) {
    const node::ClusterOptions options = geo_cluster_options(placement, scale);
    const int n = static_cast<int>(options.chaos.geo->size());
    for (const std::string& protocol : protocols) {
      for (const bool conflict : {false, true}) {
        const auto regions = run_cell(protocol, n, options, conflict);
        for (int r = 0; r < n; ++r) {
          const RegionLatency& cell = regions[static_cast<std::size_t>(r)];
          const std::string& region =
              options.chaos.geo->regions()[static_cast<std::size_t>(
                  options.chaos.geo_regions[static_cast<std::size_t>(r)])];
          t.add_row({protocol, placement, conflict ? "on" : "off", region,
                     std::to_string(cell.rtt.count),
                     cell.rtt.count == 0 ? "-" : util::Table::num(cell.rtt.p50, 0) + " us",
                     cell.rtt.count == 0 ? "-" : util::Table::num(cell.rtt.p90, 0) + " us",
                     cell.rtt.count == 0 ? "-" : util::Table::num(cell.rtt.p99, 0) + " us",
                     std::to_string(cell.undecided)});
          artifact.add_row()
              .str("protocol", protocol)
              .str("placement", placement)
              .flag("conflict", conflict)
              .str("region", region)
              .num("n", n)
              .num("scale", scale)
              .num("samples", cell.rtt.count)
              .num("rtt_p50_us", cell.rtt.p50)
              .num("rtt_p90_us", cell.rtt.p90)
              .num("rtt_p99_us", cell.rtt.p99)
              .hist("rtt_us", cell.rtt)
              .num("undecided", cell.undecided);
        }
      }
    }
  }
  twostep::bench::emit(t);
  artifact.write();
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
