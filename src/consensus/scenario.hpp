// Scenario construction for the paper's run classes.
//
// Definition 2 (E-faulty synchronous run): processes in E crash at the
// beginning of the first round, messages sent in round k arrive exactly at
// the start of round k+1, local computation is instantaneous.  Definitions
// 4 and A.1 quantify existentially over such runs ("there EXISTS a run that
// is two-step for p"), so the harness exposes the two degrees of freedom the
// adversary/scheduler has: the crash set E and the per-round delivery order,
// which for ballot-0 proposals reduces to the order in which proposals are
// issued (the network delivers same-round messages in send order).
//
// ScenarioRunner<P> additionally wires an Ω oracle (leader = lowest-id
// non-crashed process) into every protocol instance, which is the
// deterministic stand-in for §C.1's leader election in synchronous runs.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "consensus/cluster.hpp"
#include "consensus/types.hpp"
#include "net/latency.hpp"

namespace twostep::consensus {

/// One proposal of the initial configuration.  Order in the scenario vector
/// is the delivery priority: earlier proposers' Propose messages arrive
/// first everywhere.  Crashed processes' proposals are part of the initial
/// configuration but the process takes no step.
struct ScenarioProposal {
  ProcessId p = kNoProcess;
  Value v;
};

/// An E-faulty synchronous run description.
struct SyncScenario {
  std::vector<ProcessId> crashes;          ///< E: crash at the start of round 1
  std::vector<ScenarioProposal> proposals; ///< initial configuration, priority-ordered
  sim::Tick horizon = 0;                   ///< run events up to this time (0: to quiescence)
};

/// Builds the standard "best case for p" proposal order used by the
/// Definition 4/A.1 obligations: p first, everyone else afterwards in id
/// order.
std::vector<ScenarioProposal> inline priority_order(
    const std::map<ProcessId, Value>& initial, ProcessId first) {
  std::vector<ScenarioProposal> order;
  const auto it = initial.find(first);
  if (it != initial.end()) order.push_back({first, it->second});
  for (const auto& [p, v] : initial)
    if (p != first) order.push_back({p, v});
  return order;
}

/// Owns a Cluster<P> plus the Ω oracle its processes consult.  `Options`
/// is the protocol's option struct; it must have `delta`, `leader_of` and
/// `probe` members (all protocols in this library do).
template <typename P, typename Options>
class ScenarioRunner {
 public:
  using Msg = typename P::Message;

  ScenarioRunner(SystemConfig config, std::unique_ptr<net::LatencyModel> model,
                 Options base_options, std::uint64_t seed = 1)
      : ScenarioRunner(config, std::move(model), base_options,
                       RunOptions{seed, base_options.probe, {}, {}}) {}

  /// Full-control constructor: the RunOptions carry seed, probe and
  /// the chaos configuration (fault plan, reliable channel).  The probe
  /// rides in twice: inside each protocol's Options (protocol events) and at
  /// the harness level via RunOptions (network/simulator/cluster events);
  /// when base_options.probe is unset it inherits the RunOptions probe.
  ScenarioRunner(SystemConfig config, std::unique_ptr<net::LatencyModel> model,
                 Options base_options, RunOptions run)
      : oracle_(std::make_shared<Oracle>()),
        probe_(run.probe),
        cluster_(config, std::move(model),
                 make_factory(config, with_probe(std::move(base_options), run.probe)), run) {
    oracle_->n = config.n;
    Cluster<P>* cluster = &cluster_;
    oracle_->alive = [cluster](ProcessId p) { return !cluster->crashed(p); };
  }

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  [[nodiscard]] Cluster<P>& cluster() noexcept { return cluster_; }
  [[nodiscard]] ConsensusMonitor& monitor() noexcept { return cluster_.monitor(); }
  [[nodiscard]] sim::Tick delta() const { return cluster_.delta(); }

  /// Executes an E-faulty synchronous run: crashes E at time 0, starts the
  /// correct processes, issues proposals in priority order, then runs to the
  /// horizon (or quiescence).
  void run(const SyncScenario& s) {
    for (const ProcessId p : s.crashes) cluster_.crash(p);
    cluster_.start_all();
    for (const auto& prop : s.proposals) cluster_.propose(prop.p, prop.v);
    if (s.horizon > 0) {
      cluster_.run_until(s.horizon);
    } else {
      cluster_.run();
    }
  }

 private:
  /// Lowest-id non-crashed process; the Ω output at every process.
  struct Oracle {
    int n = 0;
    std::function<bool(ProcessId)> alive;
    [[nodiscard]] ProcessId leader() const {
      for (ProcessId p = 0; p < n; ++p)
        if (!alive || alive(p)) return p;
      return kNoProcess;
    }
  };

  static Options with_probe(Options base, const obs::Probe& probe) {
    if (!base.probe.enabled()) base.probe = probe;
    return base;
  }

  typename Cluster<P>::Factory make_factory(SystemConfig config, Options base) {
    auto oracle = oracle_;
    return [config, base, oracle](Env<Msg>& env, ProcessId) {
      Options options = base;
      options.leader_of = [oracle] { return oracle->leader(); };
      return std::make_unique<P>(env, config, options);
    };
  }

  std::shared_ptr<Oracle> oracle_;
  obs::Probe probe_;
  Cluster<P> cluster_;
};

}  // namespace twostep::consensus
