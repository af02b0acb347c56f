// The `modelcheck` workload: one fixed verification job over the paper's
// Figure 1 protocol, on one thread, with no sockets and no WAL; a run
// repeats it in fresh processes (run_shares).  One job is three searches:
//
//   (a) exhaustive DFS of the task protocol at its bound (n=3, e=1, f=1):
//       three distinct proposals, timers, one mid-step crash, depth 5
//       (127,295 schedules; depth 6 takes ~3.5 s, too few jobs per run to
//       average out the per-process speed differences run_shares handles);
//   (b) seeded fuzz of the task protocol at n=5, e=2, f=2, one process
//       below its bound of 6 — it must find an Agreement violation whose
//       schedule replays to the same violation;
//   (c) fuzz of the object protocol at n=5, e=2, f=2, its bound of 5
//       (Theorem 6) — it must find none.
//
// The verdicts are checked against bounds computed here from
// max{2e+f, 2f+1} and max{2e+f-1, 2f+1}, never against recorded output.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/two_step.hpp"
#include "modelcheck/explorer.hpp"
#include "perfbench.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using twostep::consensus::ProcessId;
using twostep::consensus::SystemConfig;
using twostep::consensus::Value;
using twostep::core::Mode;
using twostep::core::TwoStepProcess;
using twostep::modelcheck::DirectDrive;
using twostep::modelcheck::Explorer;
using twostep::modelcheck::ExploreResult;
using twostep::modelcheck::Scenario;

constexpr int kExhaustiveDepth = 5;
constexpr int kWarmupDepth = 4;  ///< the set-up's shallow search
constexpr long kExhaustiveBudget = 20'000'000;  ///< far above the space; must exhaust
constexpr int kBelowBoundTraces = 30'000;       ///< budget to find the violation
constexpr int kObjectTraces = 400;              ///< fixed: no violation expected
constexpr int kFuzzSteps = 250;
/// The below-bound fuzz stops at its first violation, so its cost depends
/// on its seed; a fixed seed keeps the job's cost the same for every run.
constexpr std::uint64_t kBelowBoundSeed = 7;

DirectDrive<TwoStepProcess>::Factory factory(SystemConfig cfg, Mode mode) {
  return [cfg, mode](twostep::consensus::Env<twostep::core::Message>& env, ProcessId) {
    twostep::core::Options o;
    o.mode = mode;
    o.delta = 100;
    o.leader_of = [] { return ProcessId{0}; };
    return std::make_unique<TwoStepProcess>(env, cfg, o);
  };
}

/// Distinct positive proposal values drawn from the seed, ascending by
/// process id.  The protocol only compares values, so every seed explores
/// the same schedule space and the job's cost does not depend on the seed.
std::vector<std::int64_t> proposals(std::uint64_t seed, int count) {
  twostep::util::Rng rng{twostep::util::splitmix64(seed, 0x4d43ULL)};
  std::vector<std::int64_t> out;
  while (static_cast<int>(out.size()) < count) {
    const auto v = static_cast<std::int64_t>(1 + rng.next_below(1'000'000));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Scenario<TwoStepProcess> scenario(int n, int e, int f, Mode mode,
                                  const std::vector<std::int64_t>& values, int crash_budget,
                                  int max_depth) {
  const SystemConfig cfg{n, f, e};
  Scenario<TwoStepProcess> s;
  s.config = cfg;
  s.factory = factory(cfg, mode);
  s.setup = [values](DirectDrive<TwoStepProcess>& d) {
    d.start_all();
    for (std::size_t p = 0; p < values.size(); ++p)
      d.propose(static_cast<ProcessId>(p), Value{values[p]});
  };
  for (ProcessId p = 0; p < n; ++p) s.may_crash.push_back(p);
  s.crash_budget = crash_budget;
  s.explore_timers = true;
  s.max_depth = max_depth;
  return s;
}

struct Job {
  Scenario<TwoStepProcess> at_bound;     // (a)
  Scenario<TwoStepProcess> below_bound;  // (b)
  Scenario<TwoStepProcess> object;       // (c)
  std::uint64_t object_seed = 0;
};

Job make_job(std::uint64_t seed, int depth) {
  Job job;
  const int n_task = task_bound(1, 1);
  job.at_bound = scenario(n_task, 1, 1, Mode::kTask, proposals(seed, 3), 1, depth);
  const int n_below = task_bound(2, 2) - 1;
  job.below_bound = scenario(n_below, 2, 2, Mode::kTask, proposals(seed + 1, n_below), 2, 48);
  const int n_object = object_bound(2, 2);
  job.object = scenario(n_object, 2, 2, Mode::kObject, proposals(seed + 2, 3), 2, 48);
  job.object_seed = twostep::util::splitmix64(seed, 0x465aULL);
  return job;
}

struct JobResult {
  ExploreResult exhaustive;
  std::int64_t fuzz_steps = 0;
};

/// Runs one job and checks every verdict; failures land in `out`.
JobResult run_job(const Job& job, Outcome& out) {
  JobResult r;
  r.exhaustive = Explorer<TwoStepProcess>::explore(job.at_bound, kExhaustiveBudget);
  const SystemConfig& a = job.at_bound.config;
  std::string err = check_verdict({false, a.n, a.e, a.f, r.exhaustive.violation, true,
                                   r.exhaustive.exhausted});
  if (!err.empty()) out.fail("exhaustive search: " + err);

  const ExploreResult below =
      Explorer<TwoStepProcess>::fuzz(job.below_bound, kBelowBoundTraces, kBelowBoundSeed,
                                     kFuzzSteps, 1);
  const SystemConfig& b = job.below_bound.config;
  err = check_verdict({false, b.n, b.e, b.f, below.violation, false, false});
  if (!err.empty()) out.fail("below-bound fuzz: " + err);
  if (below.violation) {
    if (below.what.find("agreement") == std::string::npos)
      out.fail("below-bound fuzz found no Agreement violation: " + below.what);
    auto drive = Explorer<TwoStepProcess>::replay_schedule(job.below_bound, below.schedule);
    if (drive->monitor().safe() || drive->monitor().violations().front() != below.what)
      out.fail("below-bound violation does not replay");
  }

  const ExploreResult object =
      Explorer<TwoStepProcess>::fuzz(job.object, kObjectTraces, job.object_seed, kFuzzSteps, 1);
  const SystemConfig& c = job.object.config;
  err = check_verdict({true, c.n, c.e, c.f, object.violation, false, false});
  if (!err.empty()) out.fail("object fuzz: " + err + " " + object.what);
  if (object.traces != kObjectTraces) out.fail("object fuzz stopped early");
  r.fuzz_steps = below.steps + object.steps;
  return r;
}

}  // namespace

Outcome run_modelcheck(const RunOptions& opt) {
  Outcome out;
  // Set-up: build the job's scenarios and warm the allocator and caches on
  // a shallow search.
  std::int64_t t0 = mono_ns();
  (void)Explorer<TwoStepProcess>::explore(make_job(opt.seed, kWarmupDepth).at_bound,
                                          kExhaustiveBudget);
  const Job job = make_job(opt.seed, kExhaustiveDepth);
  out.add("setup_s", static_cast<double>(mono_ns() - t0) / 1e9);

  t0 = mono_ns();
  const JobResult r = run_job(job, out);
  const double job_s = static_cast<double>(mono_ns() - t0) / 1e9;
  out.attempted = 3;  // three verdicts per job
  if (opt.trace) {
    out.set("modelcheck.schedules", static_cast<double>(r.exhaustive.traces), "count");
    out.set("modelcheck.steps", static_cast<double>(r.exhaustive.steps), "count");
    out.set("modelcheck.steps_per_s",
            static_cast<double>(r.exhaustive.steps + r.fuzz_steps) / job_s, "1/s");
  } else {
    out.add("job_us", job_s * 1e6);
  }
  return out;
}

}  // namespace perfbench
