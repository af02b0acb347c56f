// N1 — Client-observed two-step latency over real loopback TCP, next to the
// simulator's abstract Δ-latency for the same runs (e=1, f=1, each protocol
// at its own minimal cluster size):
//
//   task        n=3   one-shot decision, lone proposer
//   object      n=3   one-shot decision, lone proposer (the proxy model)
//   fast paxos  n=4   one-shot decision, lone proposer
//   rsm         n=3   closed-loop client, one object-mode instance per slot
//
// Every live sample is an end-to-end request over a real socket against a
// node::Runtime cluster — the exact code path `twostep localcluster` and a
// multi-process deployment use.  A client sends its value to replica 0; the
// reply arrives when that replica decides, so the RTT is the client-observed
// decision latency.  One-shot protocols get a fresh cluster per repetition
// (consensus is consumed by the first decision); the RSM amortises one
// cluster across the whole command stream.  "fast fraction" counts the share
// of *voting* decisions taken on the two-step path (learned decisions are
// excluded) — the claim under test is that the paper's fast path survives
// real sockets, not just the simulator's lockstep rounds.
#include <memory>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "core/two_step.hpp"
#include "fastpaxos/fast_paxos.hpp"
#include "node/client.hpp"
#include "node/local_cluster.hpp"
#include "rsm/rsm.hpp"

namespace {

using namespace twostep;
using consensus::ProcessId;
using consensus::SyncScenario;
using consensus::SystemConfig;
using consensus::Value;

constexpr int kE = 1;
constexpr int kF = 1;
constexpr sim::Tick kSimDelta = 100;
/// Live Δ: large enough that a loopback round trip never races the
/// new-ballot timer, so any slow-path decision is a real protocol event.
constexpr sim::Tick kLiveDeltaUs = 100'000;
constexpr int kOneShotReps = 15;
constexpr std::int64_t kRsmCommands = 200;

struct LiveResult {
  obs::HistogramSnapshot rtt;  ///< client-observed request RTTs (µs)
  std::uint64_t fast = 0;      ///< decisions taken on the two-step path
  std::uint64_t voted = 0;     ///< fast + slow (learned decisions excluded)
  bool ok = true;
};

void fold_decisions(LiveResult& out, obs::MetricsRegistry& merged) {
  out.fast += merged.counter_value("decisions.fast");
  out.voted +=
      merged.counter_value("decisions.fast") + merged.counter_value("decisions.slow");
}

/// One live one-shot repetition: fresh cluster, one client request against
/// replica 0, the reply RTT is the sample (recorded into `rtt`).
template <typename P, typename MakeProc>
void live_one_shot_rep(int n, const MakeProc& make, obs::LogHistogram& rtt, LiveResult& out) {
  node::LocalCluster<P> cluster(n, make);
  if (!cluster.wait_for_mesh()) {
    out.ok = false;
    return;
  }
  obs::MetricsRegistry client_metrics;
  node::ClientSession client(cluster.endpoints()[0], &client_metrics);
  if (!client.connect()) {
    out.ok = false;
    return;
  }
  const auto reply = client.call(1000);
  if (!reply || !reply->ok || reply->value != 1000) out.ok = false;
  cluster.stop();
  obs::MetricsRegistry merged = cluster.merged_metrics();
  fold_decisions(out, merged);
  // Exactly one call landed in the client's histogram; max is that sample.
  const auto sample = client_metrics.log_histogram_snapshot("client.rtt_us");
  if (sample.count > 0) rtt.record(static_cast<std::int64_t>(sample.max));
}

template <typename P, typename MakeProc>
LiveResult live_one_shot(int n, const MakeProc& make) {
  LiveResult out;
  obs::LogHistogram rtt;
  for (int rep = 0; rep < kOneShotReps; ++rep) live_one_shot_rep<P>(n, make, rtt, out);
  out.rtt = rtt.snapshot();
  return out;
}

LiveResult live_rsm(int n) {
  const SystemConfig config{n, kF, kE};
  LiveResult out;
  node::LocalCluster<rsm::RsmProcess> cluster(
      n, [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg, ProcessId) {
        rsm::Options options;
        options.delta = kLiveDeltaUs;
        options.leader_of = [] { return ProcessId{0}; };
        options.probe.metrics = &reg;
        return std::make_unique<rsm::RsmProcess>(env, config, options);
      });
  if (!cluster.wait_for_mesh()) {
    out.ok = false;
    return out;
  }
  obs::MetricsRegistry client_metrics;
  node::ClientSession client(cluster.endpoints()[0], &client_metrics);
  if (!client.connect()) {
    out.ok = false;
    return out;
  }
  const auto result = client.run_closed_loop(kRsmCommands);
  out.ok = result.ok == kRsmCommands;
  cluster.stop();
  obs::MetricsRegistry merged = cluster.merged_metrics();
  fold_decisions(out, merged);
  out.rtt = result.rtt;  // the closed-loop window's histogram snapshot
  return out;
}

/// Simulated decision latency (in Δ) at replica 0 for the same lone-proposer
/// pattern the live runs use.  The RSM reuses the object-mode number: it
/// runs one object-mode core instance per slot.
double sim_latency_delta(const std::string& name, int n) {
  const SystemConfig config{n, kF, kE};
  SyncScenario s;
  s.proposals = {{0, Value{1000}}};
  auto run = [&](auto runner) {
    runner->run(s);
    const auto t = runner->monitor().decision_time(0);
    return t && runner->monitor().safe() ? static_cast<double>(*t) / kSimDelta : -1.0;
  };
  if (name == "task")
    return run(harness::RunSpec(config).delta(kSimDelta).core(core::Mode::kTask));
  if (name == "fast paxos") return run(harness::RunSpec(config).delta(kSimDelta).fastpaxos());
  return run(harness::RunSpec(config).delta(kSimDelta).core(core::Mode::kObject));
}

int protocol_n(const std::string& name) {
  if (name == "task") return SystemConfig::min_processes_task(kE, kF);
  if (name == "fast paxos") return SystemConfig::min_processes_fast_paxos(kE, kF);
  return SystemConfig::min_processes_object(kE, kF);  // object and rsm
}

LiveResult live_protocol(const std::string& name, int n) {
  const SystemConfig config{n, kF, kE};
  if (name == "rsm") return live_rsm(n);
  if (name == "fast paxos") {
    return live_one_shot<fastpaxos::FastPaxosProcess>(
        n, [=](consensus::Env<fastpaxos::Message>& env, obs::MetricsRegistry& reg, ProcessId) {
          fastpaxos::Options options;
          options.delta = kLiveDeltaUs;
          options.leader_of = [] { return ProcessId{0}; };
          options.probe.metrics = &reg;
          return std::make_unique<fastpaxos::FastPaxosProcess>(env, config, options);
        });
  }
  const core::Mode mode = name == "task" ? core::Mode::kTask : core::Mode::kObject;
  return live_one_shot<core::TwoStepProcess>(
      n, [=](consensus::Env<core::Message>& env, obs::MetricsRegistry& reg, ProcessId) {
        core::Options options;
        options.mode = mode;
        options.delta = kLiveDeltaUs;
        options.leader_of = [] { return ProcessId{0}; };
        options.probe.metrics = &reg;
        return std::make_unique<core::TwoStepProcess>(env, config, options);
      });
}

void print_tables() {
  const std::vector<std::string> protocols = {"task", "object", "fast paxos", "rsm"};
  util::Table t({"protocol", "n", "samples", "sim fast path (delta)", "live p50", "live p99",
                 "fast fraction"});
  t.set_title("N1 — client-observed latency: loopback TCP cluster vs simulator (e=1, f=1)");
  bench::BenchArtifact artifact("n1_live");
  // Live runs spawn n event-loop threads each; keep them sequential so the
  // samples never contend with a sibling cluster for cores.
  for (const std::string& name : protocols) {
    const int n = protocol_n(name);
    const double sim_delta = sim_latency_delta(name, n);
    LiveResult live = live_protocol(name, n);
    const double frac = live.voted == 0
                            ? 0
                            : static_cast<double>(live.fast) / static_cast<double>(live.voted);
    t.add_row({name + (live.ok ? "" : " (INCOMPLETE)"), std::to_string(n),
               std::to_string(live.rtt.count), sim_delta < 0 ? "-" : util::Table::num(sim_delta, 0),
               live.rtt.count == 0 ? "-" : util::Table::num(live.rtt.p50, 0) + " us",
               live.rtt.count == 0 ? "-" : util::Table::num(live.rtt.p99, 0) + " us",
               live.voted == 0 ? "-" : util::Table::num(frac, 2)});
    artifact.add_row()
        .str("protocol", name)
        .num("n", n)
        .num("samples", live.rtt.count)
        .num("sim_fast_path_delta", sim_delta)
        .num("rtt_p50_us", live.rtt.p50)
        .num("rtt_p99_us", live.rtt.p99)
        .hist("rtt_us", live.rtt)
        .num("fast_fraction", frac)
        .flag("ok", live.ok);
  }
  twostep::bench::emit(t);
  artifact.write();
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
