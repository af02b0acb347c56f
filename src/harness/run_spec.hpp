// RunSpec: one named-setter builder for every protocol runner.
//
// Replaces the historical positional-default make_*_runner factories
// (removed after their deprecation release).  A spec accumulates the
// run's knobs — latency model, delta, seed, selection policy, probe,
// fault plan, reliable channel — and a terminal method
// (core / paxos / fastpaxos / rsm) consumes it into a ScenarioRunner:
//
//   auto runner = harness::RunSpec(config)
//                     .delta(100)
//                     .seed(7)
//                     .fault_plan(plan)
//                     .reliable()
//                     .core(core::Mode::kObject);
//
// Specs are single-shot: the terminal method moves the latency model out,
// so build a fresh RunSpec per runner.
#pragma once

#include <memory>
#include <utility>

#include "consensus/scenario.hpp"
#include "consensus/twostep_eval.hpp"
#include "core/two_step.hpp"
#include "faults/fault_plan.hpp"
#include "fastpaxos/fast_paxos.hpp"
#include "net/latency.hpp"
#include "net/reliable.hpp"
#include "paxos/paxos.hpp"
#include "rsm/rsm.hpp"

namespace twostep::harness {

using CoreRunner = consensus::ScenarioRunner<core::TwoStepProcess, core::Options>;
using PaxosRunner = consensus::ScenarioRunner<paxos::PaxosProcess, paxos::Options>;
using FastPaxosRunner = consensus::ScenarioRunner<fastpaxos::FastPaxosProcess, fastpaxos::Options>;
using RsmRunner = consensus::ScenarioRunner<rsm::RsmProcess, rsm::Options>;

class RunSpec {
 public:
  explicit RunSpec(consensus::SystemConfig config) : config_(config) {}

  /// Core-protocol mode (task vs object agreement); ignored by the other
  /// protocols.  Can also be passed directly to the core() terminal.
  RunSpec& mode(core::Mode m) {
    mode_ = m;
    return *this;
  }

  /// Round length for the default SynchronousRounds model (ignored when an
  /// explicit model is set — the model's own delta wins).
  RunSpec& delta(sim::Tick d) {
    delta_ = d;
    return *this;
  }

  /// Explicit latency model (partial synchrony, WAN matrix, ...).  Default:
  /// Definition 2 synchronous rounds of length delta.
  RunSpec& model(std::unique_ptr<net::LatencyModel> m) {
    model_ = std::move(m);
    return *this;
  }

  RunSpec& seed(std::uint64_t s) {
    run_.seed = s;
    return *this;
  }

  /// Core-protocol 1B value-selection policy (paper rule vs variants).
  RunSpec& selection(core::SelectionPolicy p) {
    selection_ = p;
    return *this;
  }

  /// Attaches a RunTracer / MetricsRegistry to the whole stack (protocol,
  /// network, simulator, cluster).
  RunSpec& probe(obs::Probe p) {
    run_.probe = p;
    return *this;
  }

  /// Chaos: the network consults `plan` for every send.
  RunSpec& fault_plan(std::shared_ptr<faults::FaultPlan> plan) {
    run_.faults = std::move(plan);
    return *this;
  }

  /// Chaos: interpose a ReliableChannel (retransmission + dedup) between
  /// the protocols and the lossy network.
  RunSpec& reliable(net::ReliableConfig config = {}) {
    run_.reliable = config;
    return *this;
  }

  // ---- terminal builders (each consumes the stored latency model) ----

  [[nodiscard]] std::unique_ptr<CoreRunner> core(core::Mode m) {
    core::Options options;
    options.mode = m;
    options.selection_policy = selection_;
    return build<CoreRunner>(std::move(options));
  }
  [[nodiscard]] std::unique_ptr<CoreRunner> core() { return core(mode_); }

  [[nodiscard]] std::unique_ptr<PaxosRunner> paxos() {
    return build<PaxosRunner>(paxos::Options{});
  }

  [[nodiscard]] std::unique_ptr<FastPaxosRunner> fastpaxos() {
    return build<FastPaxosRunner>(fastpaxos::Options{});
  }

  [[nodiscard]] std::unique_ptr<RsmRunner> rsm() { return build<RsmRunner>(rsm::Options{}); }

 private:
  template <typename Runner, typename Options>
  std::unique_ptr<Runner> build(Options options) {
    std::unique_ptr<net::LatencyModel> model =
        model_ ? std::move(model_) : std::make_unique<net::SynchronousRounds>(delta_);
    options.delta = model->delta();
    options.probe = run_.probe;
    return std::make_unique<Runner>(config_, std::move(model), std::move(options), run_);
  }

  consensus::SystemConfig config_;
  core::Mode mode_ = core::Mode::kTask;
  sim::Tick delta_ = 100;
  core::SelectionPolicy selection_ = core::SelectionPolicy::kPaper;
  std::unique_ptr<net::LatencyModel> model_;
  consensus::RunOptions run_;
};

}  // namespace twostep::harness
