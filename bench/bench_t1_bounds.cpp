// T1 — Tight bounds table (Theorems 5 and 6 vs the classical bounds).
//
// For each (e, f) the table reports, per formulation, the theoretical
// minimum number of processes and two empirical verdicts obtained from this
// library:
//   * "ok@n"    — at the bound every Definition 4 / A.1 obligation is met
//                 over all crash sets and canonical initial configurations;
//   * "broken@n-1" — one process below the bound, the Appendix B splicing
//                 attack produces a concrete Agreement violation (where the
//                 attack's side conditions apply).
#include <string>
#include <utility>
#include <vector>

#include "bench_support.hpp"
#include "consensus/twostep_eval.hpp"
#include "lowerbound/scenarios.hpp"

namespace {

using namespace twostep;
using consensus::SystemConfig;
using consensus::TwoStepEvaluator;
using harness::RunSpec;

bool task_ok_at(int e, int f, int n) {
  const SystemConfig cfg{n, f, e};
  TwoStepEvaluator<core::TwoStepProcess, core::Options> eval{
      cfg, [&] { return RunSpec(cfg).core(core::Mode::kTask); }};
  return eval.check_task_item1().ok() && eval.check_task_item2().ok();
}

bool object_ok_at(int e, int f, int n) {
  const SystemConfig cfg{n, f, e};
  TwoStepEvaluator<core::TwoStepProcess, core::Options> eval{
      cfg, [&] { return RunSpec(cfg).core(core::Mode::kObject); }};
  return eval.check_object_item1().ok() && eval.check_object_item2().ok();
}

bool fastpaxos_ok_at(int e, int f, int n) {
  const SystemConfig cfg{n, f, e};
  TwoStepEvaluator<fastpaxos::FastPaxosProcess, fastpaxos::Options> eval{
      cfg, [&] { return RunSpec(cfg).fastpaxos(); }};
  return eval.check_task_item1().ok() && eval.check_task_item2().ok();
}

std::string verdict(int bound, bool ok, bool attack_applies, bool attack_violates) {
  std::string s = std::to_string(bound);
  s += ok ? " ok" : " FAIL";
  if (attack_applies) s += attack_violates ? ", n-1 broken" : ", n-1 SURVIVES?";
  return s;
}

void print_tables() {
  util::Table t({"e", "f", "task n=max{2e+f,2f+1}", "object n=max{2e+f-1,2f+1}",
                 "fast paxos n=max{2e+f+1,2f+1}", "paxos n=2f+1 (e=0 only)"});
  t.set_title("T1 — minimal processes for f-resilient e-two-step consensus");

  std::vector<std::pair<int, int>> configs;
  for (int e = 1; e <= 3; ++e)
    for (int f = e; f <= 4; ++f)
      if (SystemConfig::min_processes_fast_paxos(e, f) <= 9)  // keep sweeps tractable
        configs.emplace_back(e, f);

  // Every (e, f) point is independent: compute the rows across
  // TWOSTEP_BENCH_JOBS workers, emit in deterministic order.
  const auto rows = twostep::bench::sweep_rows<std::vector<std::string>>(
      configs.size(), [&configs](std::size_t i) {
        const auto [e, f] = configs[i];
        const int nt = SystemConfig::min_processes_task(e, f);
        const int no = SystemConfig::min_processes_object(e, f);
        const int nf = SystemConfig::min_processes_fast_paxos(e, f);

        const bool task_attack = f >= 2 && 2 * e >= f + 2;
        const bool object_attack = f >= 2 && 2 * e >= f + 3;
        const bool task_broken =
            task_attack && lowerbound::task_below_bound_violation(e, f).agreement_violated;
        const bool object_broken =
            object_attack &&
            lowerbound::object_below_bound_violation(e, f).agreement_violated;
        const bool fp_broken =
            lowerbound::fastpaxos_below_bound_violation(e, f).agreement_violated;

        return std::vector<std::string>{
            std::to_string(e), std::to_string(f),
            verdict(nt, task_ok_at(e, f, nt), task_attack, task_broken),
            verdict(no, object_ok_at(e, f, no), object_attack, object_broken),
            verdict(nf, fastpaxos_ok_at(e, f, nf), true, fp_broken),
            std::to_string(2 * f + 1)};
      });
  for (const auto& row : rows) t.add_row(row);
  twostep::bench::emit(t);
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
