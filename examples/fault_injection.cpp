// Fault injection: watch the slow path save a fast decision, then watch a
// ReliableChannel carry consensus through a lossy, partitioned network.
//
//   $ ./fault_injection
//
// Part 1 — crash recovery: a proposer wins the fast path and crashes before
// anyone learns its decision; the Ω-elected leader runs a ballot, and the
// value-selection rule (Figure 1 lines 22-31) re-derives the decided value
// from the surviving votes.  The run's trace is printed: every message
// send, delivery and loss, and the leader's ballot and value selection.
//
// Part 2 — chaos: the same protocol runs under a deterministic FaultPlan
// (20% message drop, duplication, a partition that heals) with a
// ReliableChannel restoring the reliable-link abstraction the paper's
// Definition 2 assumes.  Safety holds, everyone decides, and the
// retransmission statistics are printed.
#include <cstdio>
#include <memory>

#include "faults/fault_plan.hpp"
#include "harness/run_spec.hpp"
#include "obs/export.hpp"

using namespace twostep;
using consensus::ProcessId;
using consensus::SystemConfig;
using consensus::Value;

namespace {

bool crash_recovery_demo() {
  const SystemConfig config{3, /*f=*/1, /*e=*/1};  // the task bound for e=1, f=1
  const sim::Tick delta = 100;

  obs::RunTracer tracer;
  auto runner =
      harness::RunSpec(config).delta(delta).probe({&tracer, nullptr}).core(core::Mode::kTask);

  runner->cluster().start_all();
  // p2 proposes the highest value and crashes right after broadcasting.
  runner->cluster().propose(2, Value{9});
  runner->cluster().crash(2);
  runner->cluster().propose(0, Value{1});
  runner->cluster().propose(1, Value{2});
  runner->cluster().run();

  std::printf("run trace:\n");
  for (const obs::TraceEvent& event : tracer.events())
    std::printf("  %s\n", obs::format_event(event).c_str());

  const auto& monitor = runner->monitor();
  std::printf("\np2 proposed 9, got votes from p0 and p1, and crashed.\n");
  for (ProcessId p = 0; p < 2; ++p) {
    std::printf("p%d decided %s at t=%lld (fast path would have been t=%lld)\n", p,
                monitor.decision(p)->to_string().c_str(),
                static_cast<long long>(*monitor.decision_time(p)),
                static_cast<long long>(2 * delta));
  }
  const bool recovered = monitor.decision(0) == Value{9};
  std::printf("the crashed proposer's value was %s by the slow path\n\n",
              recovered ? "RECOVERED" : "LOST");
  return monitor.safe() && recovered;
}

bool chaos_demo() {
  const SystemConfig config{5, /*f=*/2, /*e=*/2};  // the object bound for e=2, f=2
  const sim::Tick delta = 100;

  // Deterministic adversary: 20% drop, 10% duplication, and a partition
  // isolating {p0, p1} during [150, 500).  Same seed, same faults — always.
  auto plan = std::make_shared<faults::FaultPlan>(/*seed=*/2026);
  plan->drop(0.20).duplicate(0.10).partition_cut({0, 1}, 150, 500);

  auto runner = harness::RunSpec(config)
                    .delta(delta)
                    .seed(2026)
                    .fault_plan(plan)
                    .reliable()  // acks + retransmission + dedup
                    .core(core::Mode::kObject);

  runner->cluster().start_all();
  for (ProcessId p = 0; p < config.n; ++p) runner->cluster().propose(p, Value{100 + p});
  runner->cluster().run();

  const auto& monitor = runner->monitor();
  const auto* channel = runner->cluster().reliable_channel();
  std::printf("chaos run: %llu drops injected, %llu duplicates injected\n",
              static_cast<unsigned long long>(plan->injected_drops()),
              static_cast<unsigned long long>(plan->injected_duplicates()));
  std::printf("reliable channel: %llu retransmissions, %llu duplicate deliveries suppressed\n",
              static_cast<unsigned long long>(channel->retransmits()),
              static_cast<unsigned long long>(channel->duplicates_suppressed()));
  bool all_decided = true;
  for (ProcessId p = 0; p < config.n; ++p) {
    const auto v = monitor.decision(p);
    if (v) {
      std::printf("p%d decided %s at t=%lld\n", p, v->to_string().c_str(),
                  static_cast<long long>(*monitor.decision_time(p)));
    } else {
      all_decided = false;
      std::printf("p%d did not decide\n", p);
    }
  }
  std::printf("safety under chaos: %s\n", monitor.safe() ? "ok" : "VIOLATED");
  return monitor.safe() && all_decided;
}

}  // namespace

int main() {
  const bool part1 = crash_recovery_demo();
  const bool part2 = chaos_demo();
  return part1 && part2 ? 0 : 1;
}
