// T4 — Lower-bound demonstrations (Appendix B, "only if" directions).
//
// Each row executes one adversarial run-splicing construction.  Below the
// bound the attack yields a concrete Agreement violation with at most f
// crashes; at the bound the identical attack shape is defeated (the crash
// budget forces a bridge process to survive and the selection rule recovers
// the fast decision).  The final rows let the schedule fuzzer rediscover
// the below-bound violations without being told the construction.
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_support.hpp"
#include "lowerbound/scenarios.hpp"
#include "modelcheck/direct_drive.hpp"
#include "modelcheck/explorer.hpp"

namespace {

using namespace twostep;
using consensus::ProcessId;
using consensus::SystemConfig;
using consensus::Value;
using lowerbound::AttackOutcome;

std::string row_outcome(const AttackOutcome& out) {
  return out.agreement_violated ? "VIOLATED" : "safe";
}

std::vector<std::string> attack_row(const std::string& name, const AttackOutcome& out,
                                    int bound) {
  return {name, std::to_string(out.n),
          out.n < bound ? "below" : "at bound", std::to_string(out.crashes_used),
          out.fast_decision.to_string(), out.late_decision.to_string(),
          row_outcome(out)};
}

void print_tables() {
  util::Table t({"construction", "n", "position", "crashes", "fast decision",
                 "recovery decision", "agreement"});
  t.set_title("T4 — executable lower-bound constructions (Appendix B)");

  // Row specs first, then one parallel sweep: every construction replays an
  // independent drive, so the rows compute concurrently and print in order.
  struct RowSpec {
    std::string name;
    std::function<AttackOutcome()> run;
    int bound;
  };
  std::vector<RowSpec> specs;
  for (const auto& [e, f] : std::vector<std::pair<int, int>>{{2, 2}, {3, 3}}) {
    const int bound = SystemConfig::min_processes_task(e, f);
    specs.push_back({"task B.1  e=" + std::to_string(e) + " f=" + std::to_string(f),
                     [e, f] { return lowerbound::task_below_bound_violation(e, f); }, bound});
    specs.push_back({"task B.1  (defended)",
                     [e, f] { return lowerbound::task_at_bound_defense(e, f); }, bound});
  }
  for (const auto& [e, f] : std::vector<std::pair<int, int>>{{3, 3}, {4, 4}}) {
    const int bound = SystemConfig::min_processes_object(e, f);
    specs.push_back({"object B.2 e=" + std::to_string(e) + " f=" + std::to_string(f),
                     [e, f] { return lowerbound::object_below_bound_violation(e, f); },
                     bound});
    specs.push_back({"object B.2 (defended)",
                     [e, f] { return lowerbound::object_at_bound_defense(e, f); }, bound});
  }
  for (const auto& [e, f] : std::vector<std::pair<int, int>>{{1, 1}, {2, 2}}) {
    const int bound = SystemConfig::min_processes_fast_paxos(e, f);
    specs.push_back({"fast paxos e=" + std::to_string(e) + " f=" + std::to_string(f),
                     [e, f] { return lowerbound::fastpaxos_below_bound_violation(e, f); },
                     bound});
    specs.push_back({"fast paxos (defended)",
                     [e, f] { return lowerbound::fastpaxos_at_bound_defense(e, f); }, bound});
  }
  const auto rows = twostep::bench::sweep_rows<std::vector<std::string>>(
      specs.size(), [&specs](std::size_t i) {
        return attack_row(specs[i].name, specs[i].run(), specs[i].bound);
      });
  for (const auto& row : rows) t.add_row(row);
  twostep::bench::emit(t);

  // Fuzzer rediscovery: random schedules against the below-bound task
  // protocol, no construction knowledge.
  util::Table fz({"target", "n", "random traces until violation", "found"});
  fz.set_title("T4b — schedule fuzzer rediscovers the violations");
  {
    const SystemConfig cfg{5, 2, 2};  // 2e+f-1
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
      for (ProcessId p = 0; p < 5; ++p) d.propose(p, Value{p + 1});
    };
    s.may_crash = {0, 1, 2, 3, 4};
    s.crash_budget = 2;
    const auto r = modelcheck::Explorer<core::TwoStepProcess>::fuzz(
        s, 50000, 7, 250, twostep::bench::bench_jobs());
    fz.add_row({"task protocol below bound", "5", std::to_string(r.traces),
                r.violation ? "yes" : "no"});
  }
  twostep::bench::emit(fz);

  // Narrative of the canonical construction, for EXPERIMENTS.md.
  std::printf("Narrative (task B.1, e=2, f=2, n=5):\n");
  for (const auto& line : lowerbound::task_below_bound_violation(2, 2).narrative)
    std::printf("  - %s\n", line.c_str());
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
