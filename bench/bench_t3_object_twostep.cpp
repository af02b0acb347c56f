// T3 — Object two-step obligation matrix (Definition A.1 at the Theorem 6
// bound), including the e=2, f=2 point where the object protocol runs with
// one process fewer than the task protocol.
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
      cfg, [&] { return RunSpec(cfg).core(core::Mode::kObject); }};
  return item == 1 ? eval.check_object_item1() : eval.check_object_item2();
}

std::string cell(const EvalVerdict& v) {
  return std::to_string(v.satisfied) + "/" + std::to_string(v.runs) +
         (v.ok() ? "" : " FAIL");
}

void print_tables() {
  util::Table t({"e", "f", "n=max{2e+f-1,2f+1}", "task would need",
                 "item1 (lone proposer)", "item2 (same value)"});
  t.set_title("T3 — Definition A.1 obligations for the object protocol");
  const std::vector<std::pair<int, int>> configs = {{1, 1}, {1, 2}, {2, 2}, {2, 3}, {3, 3}};
  const auto rows = twostep::bench::sweep_rows<std::vector<std::string>>(
      configs.size(), [&configs](std::size_t i) {
        const auto [e, f] = configs[i];
        const int n = SystemConfig::min_processes_object(e, f);
        return std::vector<std::string>{
            std::to_string(e), std::to_string(f), std::to_string(n),
            std::to_string(SystemConfig::min_processes_task(e, f)),
            cell(run_item(e, f, n, 1)), cell(run_item(e, f, n, 2))};
      });
  for (const auto& row : rows) t.add_row(row);
  twostep::bench::emit(t);
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
