// F3 — Slow-path recovery: what the ballot machinery costs and that it
// preserves fast decisions (Lemma 7 / C.2).
//
// Scenarios, per (e, f) at the task bound:
//   crashed-proposer   the fast proposer crashes right after broadcasting;
//                      its value was voted by everyone and MUST be recovered
//   contended          conflicting proposals, crashes kill the fast path;
//                      the Ω leader's ballot decides
//   decide-then-crash  the proposer decides and crashes mid-Decide: the
//                      survivors re-derive the decided value
// The reported latency is the survivors' decision time in Δ (fast path = 2).
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench_support.hpp"
#include "lowerbound/scenarios.hpp"

namespace {

using namespace twostep;
using consensus::ProcessId;
using consensus::SyncScenario;
using consensus::SystemConfig;
using consensus::Value;

constexpr sim::Tick kDelta = 100;

struct Outcome {
  double latency = -1;   // max decision time over correct processes, in Δ
  bool recovered = true; // recovered value == the fast proposer's value
  bool safe = true;
};

Outcome crashed_proposer(int e, int f) {
  const SystemConfig cfg{SystemConfig::min_processes_task(e, f), f, e};
  auto r = harness::RunSpec(cfg).delta(kDelta).core(core::Mode::kTask);
  const ProcessId proposer = static_cast<ProcessId>(cfg.n - 1);
  r->cluster().start_all();
  r->cluster().propose(proposer, Value{1000});
  r->cluster().crash(proposer);
  for (ProcessId p = 0; p + 1 < cfg.n; ++p) r->cluster().propose(p, Value{100 + p});
  r->cluster().run();
  Outcome out;
  out.safe = r->monitor().safe();
  for (ProcessId p = 0; p + 1 < cfg.n; ++p) {
    const auto t = r->monitor().decision_time(p);
    if (!t) return {};
    out.latency = std::max(out.latency, static_cast<double>(*t) / kDelta);
    out.recovered = out.recovered && r->monitor().decision(p) == Value{1000};
  }
  return out;
}

Outcome contended(int e, int f) {
  const SystemConfig cfg{SystemConfig::min_processes_object(e, f), f, e};
  auto r = harness::RunSpec(cfg).delta(kDelta).core(core::Mode::kObject);
  SyncScenario s;
  // Crash the highest e processes; two surviving proposers conflict.
  for (int k = 0; k < e; ++k) s.crashes.push_back(cfg.n - 1 - k);
  s.proposals = {{0, Value{10}}, {1, Value{20}}};
  r->run(s);
  Outcome out;
  out.safe = r->monitor().safe();
  out.recovered = true;  // nothing was fast-decided; any proposal is fine
  for (ProcessId p = 0; p < cfg.n; ++p) {
    if (r->cluster().crashed(p)) continue;
    const auto t = r->monitor().decision_time(p);
    if (!t) return {};
    out.latency = std::max(out.latency, static_cast<double>(*t) / kDelta);
  }
  return out;
}

Outcome decide_then_crash(int e, int f) {
  // The T4 "defended" scenario measured as a latency figure: the proposer
  // decides at 2Δ, crashes suppressing Decide; the survivors re-derive its
  // value on the slow path.
  const auto attack = lowerbound::task_at_bound_defense(e, f);
  Outcome out;
  out.safe = !attack.agreement_violated;
  out.recovered = attack.late_decision == attack.fast_decision;
  out.latency = out.safe && out.recovered ? -2 : -1;  // step-driven: no wall clock
  return out;
}

void print_tables() {
  util::Table t({"scenario", "e", "f", "n", "survivor latency (Δ)", "value recovered",
                 "safe"});
  t.set_title("F3 — slow-path recovery latency and fidelity");
  for (const auto& [e, f] : std::vector<std::pair<int, int>>{{1, 1}, {1, 2}, {2, 2}, {2, 3}}) {
    const Outcome a = crashed_proposer(e, f);
    t.add_row({"crashed proposer", std::to_string(e), std::to_string(f),
               std::to_string(SystemConfig::min_processes_task(e, f)),
               util::Table::num(a.latency, 0), a.recovered ? "yes" : "NO",
               a.safe ? "yes" : "NO"});
    const Outcome b = contended(e, f);
    t.add_row({"contended proposals", std::to_string(e), std::to_string(f),
               std::to_string(SystemConfig::min_processes_object(e, f)),
               util::Table::num(b.latency, 0), "n/a", b.safe ? "yes" : "NO"});
  }
  for (const auto& [e, f] : std::vector<std::pair<int, int>>{{2, 2}, {3, 3}}) {
    const Outcome c = decide_then_crash(e, f);
    t.add_row({"decide-then-crash (spliced)", std::to_string(e), std::to_string(f),
               std::to_string(SystemConfig::min_processes_task(e, f)), "step-driven",
               c.recovered ? "yes" : "NO", c.safe ? "yes" : "NO"});
  }
  twostep::bench::emit(t);
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
