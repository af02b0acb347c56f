// Cluster<P>: the run harness gluing together a protocol type P, the
// simulated network, the event loop, and the external monitors.
//
// Protocol requirements (duck-typed):
//   using Message = ...;                 // the protocol's wire type
//   void start();                        // arm timers; called once per process
//   void propose(Value v);               // at-most-once per process
//   void on_message(ProcessId, const Message&);
//   void on_timer(TimerId);
//   std::function<void(Value)> on_decide;  // set by the harness
//
// The harness also implements the Env each protocol instance talks to, with
// crash-stop semantics: a crashed process's outbound sends are dropped by
// the network and its timers never fire.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "consensus/env.hpp"
#include "consensus/monitor.hpp"
#include "consensus/types.hpp"
#include "faults/fault_plan.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace twostep::consensus {

/// Everything about a run that is not the protocol or the topology: seed,
/// observability, and the chaos configuration.  Passed by value through the
/// harness layers (Cluster, ScenarioRunner, harness::RunSpec).
struct RunOptions {
  std::uint64_t seed = 1;
  obs::Probe probe{};

  /// Fault-injection stage; null keeps links reliable.  The plan's
  /// crash/restart schedule is applied by the cluster (through its monitor
  /// and probe), its message rules by the network send path.
  std::shared_ptr<faults::FaultPlan> faults;

  /// Engage a ReliableChannel between the protocols and the (lossy)
  /// network.  A config with seed 0 derives the jitter stream from `seed`.
  std::optional<net::ReliableConfig> reliable;
};

template <typename P>
class Cluster {
 public:
  using Msg = typename P::Message;
  using Factory = std::function<std::unique_ptr<P>(Env<Msg>&, ProcessId)>;

  Cluster(SystemConfig config, std::unique_ptr<net::LatencyModel> model, Factory factory,
          std::uint64_t seed = 1)
      : Cluster(config, std::move(model), std::move(factory), RunOptions{seed, {}, {}, {}}) {}

  Cluster(SystemConfig config, std::unique_ptr<net::LatencyModel> model, Factory factory,
          RunOptions run)
      : config_(config),
        network_(simulator_, std::move(model), config.n, run.seed,
                 net::NetworkConfig{run.faults, run.probe}) {
    if (!factory) throw std::invalid_argument("Cluster: null protocol factory");
    if (run.reliable) {
      net::ReliableConfig rc = *run.reliable;
      // Distinct stream from the network's latency rng and any fault plan.
      if (rc.seed == 0) rc.seed = util::splitmix64(run.seed, 0x7e11ab1e);
      channel_ = std::make_unique<net::ReliableChannel<Msg>>(network_, rc);
    }
    envs_.reserve(static_cast<std::size_t>(config_.n));
    processes_.reserve(static_cast<std::size_t>(config_.n));
    for (ProcessId p = 0; p < config_.n; ++p)
      envs_.push_back(std::make_unique<ClusterEnv>(*this, p));
    for (ProcessId p = 0; p < config_.n; ++p) {
      processes_.push_back(factory(*envs_[static_cast<std::size_t>(p)], p));
      auto& proto = *processes_.back();
      proto.on_decide = [this, p](Value v) { monitor_.note_decision(p, v, simulator_.now()); };
      typename net::Network<Msg>::Handler handler = [this, p](ProcessId from, const Msg& m) {
        processes_[static_cast<std::size_t>(p)]->on_message(from, m);
      };
      if (channel_) {
        channel_->set_handler(p, std::move(handler));
      } else {
        network_.set_handler(p, std::move(handler));
      }
    }
    set_probe(run.probe);
    if (run.faults) {
      for (const faults::FaultPlan::CrashEvent ev : run.faults->crash_schedule()) {
        simulator_.schedule_at(ev.when, [this, ev] {
          if (ev.restart) {
            restart(ev.p);
          } else {
            crash(ev.p);
          }
        });
      }
    }
  }

  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] net::Network<Msg>& network() noexcept { return network_; }
  /// Null unless RunOptions::reliable engaged the retransmission layer.
  [[nodiscard]] net::ReliableChannel<Msg>* reliable_channel() noexcept { return channel_.get(); }
  [[nodiscard]] ConsensusMonitor& monitor() noexcept { return monitor_; }
  [[nodiscard]] P& process(ProcessId p) { return *processes_.at(static_cast<std::size_t>(p)); }
  [[nodiscard]] sim::Tick delta() const { return network_.delta(); }
  [[nodiscard]] sim::Tick now() const noexcept { return simulator_.now(); }

  /// Wires run tracing and metrics through the whole harness: the network
  /// (message events, per-type counters), the simulator (events-executed
  /// counter) and the cluster itself (proposals, crashes, timer fires).
  /// Protocol-internal events additionally flow through the probe carried
  /// in each protocol's Options; ScenarioRunner forwards it to both places.
  void set_probe(const obs::Probe& probe) {
    probe_ = probe;
    network_.reattach_probe(probe);
    if (probe.metrics) {
      proposals_counter_ = &probe.metrics->counter("proposals");
      crashes_counter_ = &probe.metrics->counter("crashes");
      timers_counter_ = &probe.metrics->counter("timers.fired");
      simulator_.set_executed_cell(probe.metrics->counter("sim.events").cell());
    } else {
      proposals_counter_ = crashes_counter_ = timers_counter_ = nullptr;
      simulator_.set_executed_cell(nullptr);
    }
  }

  /// Calls start() on every non-crashed process (arming protocol timers).
  void start_all() {
    for (ProcessId p = 0; p < config_.n; ++p)
      if (!network_.crashed(p)) process(p).start();
  }

  /// Records the proposal with the monitor and delivers it to the process.
  /// Crashed processes record the proposal only (it is part of the initial
  /// configuration) but take no step.
  void propose(ProcessId p, Value v) {
    monitor_.note_proposal(p, v, simulator_.now());
    if (proposals_counter_) proposals_counter_->add();
    probe_.trace([&] {
      return obs::TraceEvent{obs::EventKind::kProposal, simulator_.now(), p, kNoProcess, -1,
                             v, "", 0};
    });
    if (!network_.crashed(p)) process(p).propose(v);
  }

  /// Schedules propose(p, v) at absolute virtual time `when`.
  void propose_at(sim::Tick when, ProcessId p, Value v) {
    simulator_.schedule_at(when, [this, p, v] { propose(p, v); });
  }

  /// Crashes p now (crash-stop).
  void crash(ProcessId p) {
    network_.crash(p);
    monitor_.note_crash(p, simulator_.now());
    if (crashes_counter_) crashes_counter_->add();
    probe_.trace([&] {
      return obs::TraceEvent{obs::EventKind::kCrash, simulator_.now(), p, kNoProcess, -1,
                             {}, "", 0};
    });
  }

  void crash_at(sim::Tick when, ProcessId p) {
    simulator_.schedule_at(when, [this, p] { crash(p); });
  }

  /// Restarts a crashed p (crash-recovery with durable state): the protocol
  /// instance resumes with its pre-crash state and the network accepts its
  /// traffic again.  Messages lost while p was down stay lost unless a
  /// ReliableChannel retransmits them.
  void restart(ProcessId p) {
    network_.restart(p);
    probe_.trace([&] {
      return obs::TraceEvent{obs::EventKind::kRestart, simulator_.now(), p, kNoProcess, -1,
                             {}, "", 0};
    });
  }

  void restart_at(sim::Tick when, ProcessId p) {
    simulator_.schedule_at(when, [this, p] { restart(p); });
  }

  [[nodiscard]] bool crashed(ProcessId p) const { return network_.crashed(p); }

  /// Runs the event loop to quiescence (bounded by max_events).
  std::size_t run(std::size_t max_events = sim::Simulator::kDefaultEventBudget) {
    return simulator_.run(max_events);
  }

  /// Runs all events with timestamp <= deadline.
  std::size_t run_until(sim::Tick deadline) { return simulator_.run_until(deadline); }

  /// True iff every non-crashed process has decided.
  [[nodiscard]] bool all_correct_decided() const {
    for (ProcessId p = 0; p < config_.n; ++p)
      if (!network_.crashed(p) && !monitor_.has_decided(p)) return false;
    return true;
  }

  /// Runs until every correct process decided or the deadline/budget is hit.
  /// Returns true on success.
  bool run_until_all_decided(sim::Tick deadline,
                             std::size_t max_events = sim::Simulator::kDefaultEventBudget) {
    std::size_t used = 0;
    while (!all_correct_decided() && simulator_.now() <= deadline && used < max_events) {
      if (!simulator_.step()) break;
      ++used;
    }
    return all_correct_decided();
  }

 private:
  /// Env implementation bound to one process slot.
  class ClusterEnv final : public Env<Msg> {
   public:
    ClusterEnv(Cluster& cluster, ProcessId self) : cluster_(cluster), self_(self) {}

    [[nodiscard]] ProcessId self() const override { return self_; }
    [[nodiscard]] int cluster_size() const override { return cluster_.config_.n; }
    [[nodiscard]] sim::Tick now() const override { return cluster_.simulator_.now(); }

    void send(ProcessId to, const Msg& msg) override {
      if (cluster_.channel_) {
        cluster_.channel_->send(self_, to, msg);
      } else {
        cluster_.network_.send(self_, to, msg);
      }
    }

    TimerId set_timer(sim::Tick delay) override {
      const TimerId tid{cluster_.next_timer_++};
      const ProcessId p = self_;
      Cluster& cluster = cluster_;
      const sim::EventId ev = cluster_.simulator_.schedule_after(delay, [&cluster, p, tid] {
        cluster.timers_.erase(tid.value);
        if (cluster.network_.crashed(p)) return;
        if (cluster.timers_counter_) cluster.timers_counter_->add();
        cluster.probe_.trace([&] {
          return obs::TraceEvent{obs::EventKind::kTimerFire, cluster.simulator_.now(), p,
                                 kNoProcess, -1, {}, "",
                                 static_cast<std::int64_t>(tid.value)};
        });
        cluster.process(p).on_timer(tid);
      });
      cluster_.timers_.emplace(tid.value, ev);
      return tid;
    }

    void cancel_timer(TimerId id) override {
      const auto it = cluster_.timers_.find(id.value);
      if (it == cluster_.timers_.end()) return;
      cluster_.simulator_.cancel(it->second);
      cluster_.timers_.erase(it);
    }

   private:
    Cluster& cluster_;
    ProcessId self_;
  };

  SystemConfig config_;
  sim::Simulator simulator_;
  net::Network<Msg> network_;
  std::unique_ptr<net::ReliableChannel<Msg>> channel_;
  ConsensusMonitor monitor_;
  obs::Probe probe_;
  obs::Counter* proposals_counter_ = nullptr;
  obs::Counter* crashes_counter_ = nullptr;
  obs::Counter* timers_counter_ = nullptr;
  std::vector<std::unique_ptr<ClusterEnv>> envs_;
  std::vector<std::unique_ptr<P>> processes_;
  std::unordered_map<std::uint64_t, sim::EventId> timers_;
  std::uint64_t next_timer_ = 1;
};

}  // namespace twostep::consensus
