// F1 — Decision latency (in message delays Δ) versus the number of crashed
// processes, for every protocol at its own minimal cluster size (e=2, f=2):
//
//   paxos       n=5   fast only when the initial leader survives
//   fast paxos  n=7   two-step under any k <= e crashes (Lamport's bound)
//   task        n=6   two-step with one process fewer (Theorem 5)
//   object      n=5   two-step with two processes fewer (Theorem 6)
//
// The latency is measured at the "witness" proxy (the highest-id process,
// holding the maximum proposal with top delivery priority) in an E-faulty
// synchronous run with E = {p0..p_{k-1}}.  A second table reports message
// counts for the same runs.
#include <string>
#include <vector>

#include "bench_support.hpp"

namespace {

using namespace twostep;
using consensus::ProcessId;
using consensus::SyncScenario;
using consensus::SystemConfig;
using consensus::Value;

constexpr sim::Tick kDelta = 100;
constexpr int kE = 2;
constexpr int kF = 2;

struct RunResult {
  double latency_delta = -1;  // decision latency at witness, in Δ units
  std::size_t messages = 0;
};

template <typename Runner>
RunResult measure(Runner& runner, int n, int crashes, bool lone_proposer) {
  const ProcessId witness = static_cast<ProcessId>(n - 1);
  SyncScenario s;
  for (int k = 0; k < crashes; ++k) s.crashes.push_back(k);
  if (lone_proposer) {
    // Object semantics (the proxy model): one client command at a time,
    // proposed by its proxy alone (Definition A.1, item 1).
    s.proposals = {{witness, Value{1000}}};
  } else {
    s.proposals =
        consensus::priority_order(twostep::bench::witness_config(n, witness), witness);
  }
  runner.run(s);
  RunResult out;
  out.messages = runner.cluster().network().messages_sent();
  const auto t = runner.monitor().decision_time(witness);
  if (t && runner.monitor().safe()) out.latency_delta = static_cast<double>(*t) / kDelta;
  return out;
}

RunResult run_protocol(const std::string& name, int crashes,
                       obs::MetricsRegistry* metrics = nullptr) {
  const obs::Probe probe{nullptr, metrics};
  if (name == "paxos") {
    const SystemConfig cfg{2 * kF + 1, kF, 0};
    auto r = harness::RunSpec(cfg).delta(kDelta).probe(probe).paxos();
    return measure(*r, cfg.n, crashes, false);
  }
  if (name == "fast paxos") {
    const SystemConfig cfg{SystemConfig::min_processes_fast_paxos(kE, kF), kF, kE};
    auto r = harness::RunSpec(cfg).delta(kDelta).probe(probe).fastpaxos();
    return measure(*r, cfg.n, crashes, false);
  }
  if (name == "task") {
    const SystemConfig cfg{SystemConfig::min_processes_task(kE, kF), kF, kE};
    auto r = harness::RunSpec(cfg).delta(kDelta).probe(probe).core(core::Mode::kTask);
    return measure(*r, cfg.n, crashes, false);
  }
  const SystemConfig cfg{SystemConfig::min_processes_object(kE, kF), kF, kE};
  auto r = harness::RunSpec(cfg).delta(kDelta).probe(probe).core(core::Mode::kObject);
  return measure(*r, cfg.n, crashes, true);
}

int protocol_n(const std::string& name) {
  if (name == "paxos") return 2 * kF + 1;
  if (name == "fast paxos") return SystemConfig::min_processes_fast_paxos(kE, kF);
  if (name == "task") return SystemConfig::min_processes_task(kE, kF);
  return SystemConfig::min_processes_object(kE, kF);
}

void print_tables() {
  const std::vector<std::string> protocols = {"paxos", "fast paxos", "task", "object"};

  util::Table t({"protocol", "n", "k=0 crashes", "k=1", "k=2"});
  t.set_title("F1 — witness decision latency (in Δ) vs crashed processes (e=2, f=2)");
  util::Table m({"protocol", "n", "k=0 msgs", "k=1", "k=2"});
  m.set_title("F1b — messages sent in the same runs");

  // One task per protocol; each task owns a private MetricsRegistry, and
  // the registries are merged/emitted after the join so stdout stays
  // deterministic under any TWOSTEP_BENCH_JOBS.
  struct ProtocolRows {
    std::vector<std::string> lat_row, msg_row;
    std::vector<RunResult> runs;  ///< per crash count k = 0..kE
    obs::MetricsRegistry merged;
  };
  const auto results = twostep::bench::sweep_rows<ProtocolRows>(
      protocols.size(), [&protocols](std::size_t i) {
        const std::string& name = protocols[i];
        ProtocolRows out;
        out.lat_row = {name, std::to_string(protocol_n(name))};
        out.msg_row = out.lat_row;
        for (int k = 0; k <= kE; ++k) {
          // Opt-in per-run metrics dump (TWOSTEP_BENCH_METRICS=1).
          obs::MetricsRegistry registry;
          const RunResult r = run_protocol(
              name, k, twostep::bench::metrics_enabled() ? &registry : nullptr);
          out.merged.merge(registry);
          out.runs.push_back(r);
          out.lat_row.push_back(r.latency_delta < 0 ? "-"
                                                    : util::Table::num(r.latency_delta, 0));
          out.msg_row.push_back(std::to_string(r.messages));
        }
        return out;
      });
  twostep::bench::BenchArtifact artifact("f1_latency");
  for (std::size_t i = 0; i < results.size(); ++i) {
    twostep::bench::emit_metrics(protocols[i] + " k<=" + std::to_string(kE),
                                 results[i].merged);
    t.add_row(results[i].lat_row);
    m.add_row(results[i].msg_row);
    for (std::size_t k = 0; k < results[i].runs.size(); ++k)
      artifact.add_row()
          .str("protocol", protocols[i])
          .num("n", protocol_n(protocols[i]))
          .num("crashes", static_cast<int>(k))
          .num("latency_delta", results[i].runs[k].latency_delta)
          .num("messages", static_cast<std::uint64_t>(results[i].runs[k].messages));
  }
  twostep::bench::emit(t);
  twostep::bench::emit(m);
  artifact.write();
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
