// A1 — Ablation: the novel ingredients of the slow-ballot value-selection
// rule (Figure 1, lines 26-29) are load-bearing.
//
// Three deliberately weakened selection policies run against (a) scripted
// scenarios that target each ingredient and (b) the schedule fuzzer at the
// protocol's tight bound.  The paper rule survives everything; every mutant
// is caught.
#include <memory>
#include <string>
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
using core::SelectionPolicy;

const char* policy_name(SelectionPolicy p) {
  switch (p) {
    case SelectionPolicy::kPaper: return "paper rule";
    case SelectionPolicy::kNoProposerExclusion: return "no R-exclusion (line 26)";
    case SelectionPolicy::kNoMaxTieBreak: return "min instead of max (line 29)";
    case SelectionPolicy::kNoThresholdBranch: return "no =n-f-e branch (line 28)";
  }
  return "?";
}

/// Fuzz the task protocol at its bound under the given policy; returns the
/// number of traces until a violation (0 = none found).
long fuzz_policy(SelectionPolicy policy, int traces) {
  const SystemConfig cfg{6, 2, 2};
  modelcheck::Scenario<core::TwoStepProcess> s;
  s.config = cfg;
  s.factory = [cfg, policy](consensus::Env<core::Message>& env, ProcessId) {
    core::Options o;
    o.mode = core::Mode::kTask;
    o.delta = 100;
    o.selection_policy = policy;
    o.leader_of = [] { return ProcessId{0}; };
    return std::make_unique<core::TwoStepProcess>(env, cfg, o);
  };
  s.setup = [](modelcheck::DirectDrive<core::TwoStepProcess>& d) {
    d.start_all();
    for (ProcessId p = 0; p < 6; ++p) d.propose(p, Value{p + 1});
  };
  s.may_crash = {0, 1, 2, 3, 4, 5};
  s.crash_budget = 2;
  const auto r = modelcheck::Explorer<core::TwoStepProcess>::fuzz(s, traces, 11, 250);
  return r.violation ? r.traces : 0;
}

void print_tables() {
  util::Table t({"selection policy", "tie scenario (e=2,f=2,n=6)",
                 "exclusion scenario (object n=5)", "fuzzer @ bound"});
  t.set_title("A1 — selection-rule ablation: scripted scenarios + fuzzing");

  const std::vector<SelectionPolicy> policies = {
      SelectionPolicy::kPaper, SelectionPolicy::kNoProposerExclusion,
      SelectionPolicy::kNoMaxTieBreak, SelectionPolicy::kNoThresholdBranch};
  // One task per policy (the outer parallelism); the fuzz inside each task
  // stays single-threaded so worker counts do not multiply.
  const auto rows = twostep::bench::sweep_rows<std::vector<std::string>>(
      policies.size(), [&policies](std::size_t i) {
        const SelectionPolicy policy = policies[i];
        const auto tie = lowerbound::task_at_bound_with_policy(2, 2, policy);
        const auto excl = lowerbound::object_exclusion_ablation(policy);
        const long fuzz_traces = fuzz_policy(policy, 8000);
        return std::vector<std::string>{
            policy_name(policy),
            tie.agreement_violated ? "VIOLATED" : "safe",
            excl.agreement_violated ? "VIOLATED" : "safe",
            fuzz_traces == 0
                ? std::string("no violation")
                : "violated after " + std::to_string(fuzz_traces) + " traces"};
      });
  for (const auto& row : rows) t.add_row(row);
  twostep::bench::emit(t);
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
