// T2 — Task two-step obligation matrix (Definition 4 at the Theorem 5
// bound).  For each (e, f) the table reports, per obligation, the number of
// witness runs constructed (all crash sets x canonical configurations /
// correct witnesses) and how many satisfied the obligation.  A final column
// runs the same sweep one process below the bound: the obligations still
// hold there — the lower bound manifests as a safety violation under
// asynchrony (see T4), which is the paper's key subtlety.
#include <string>
#include <utility>
#include <vector>

#include "bench_support.hpp"
#include "consensus/twostep_eval.hpp"

namespace {

using namespace twostep;
using consensus::EvalVerdict;
using consensus::SystemConfig;
using consensus::TwoStepEvaluator;
using harness::RunSpec;

EvalVerdict run_item(int e, int f, int n, int item) {
  const SystemConfig cfg{n, f, e};
  TwoStepEvaluator<core::TwoStepProcess, core::Options> eval{
      cfg, [&] { return RunSpec(cfg).core(core::Mode::kTask); }};
  return item == 1 ? eval.check_task_item1() : eval.check_task_item2();
}

std::string cell(const EvalVerdict& v) {
  return std::to_string(v.satisfied) + "/" + std::to_string(v.runs) +
         (v.ok() ? "" : " FAIL");
}

void print_tables() {
  util::Table t({"e", "f", "n", "item1 (some proc 2-step)", "item2 (same value, each proc)",
                 "item1 @ n-1", "item2 @ n-1"});
  t.set_title("T2 — Definition 4 obligations for the task protocol");
  const std::vector<std::pair<int, int>> configs = {{1, 1}, {1, 2}, {2, 2}, {1, 3}, {2, 3}};
  const auto rows = twostep::bench::sweep_rows<std::vector<std::string>>(
      configs.size(), [&configs](std::size_t i) {
        const auto [e, f] = configs[i];
        const int n = SystemConfig::min_processes_task(e, f);
        return std::vector<std::string>{
            std::to_string(e), std::to_string(f), std::to_string(n),
            cell(run_item(e, f, n, 1)), cell(run_item(e, f, n, 2)),
            cell(run_item(e, f, n - 1, 1)), cell(run_item(e, f, n - 1, 2))};
      });
  for (const auto& row : rows) t.add_row(row);
  twostep::bench::emit(t);
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
