// TwoStepWithOmega: the paper's protocol composed with the real
// heartbeat-based Ω failure detector (§C.1) into a single self-contained
// protocol — no oracle.  Heartbeats ride the same network as consensus
// messages; the embedded omega::Detector (the one the live runtime runs)
// elects the lowest process that is not suspected, and the consensus half
// consults it when its new-ballot timer fires.  Under partial synchrony
// this yields the full Termination argument of the paper with no
// simulation-level cheating.
#pragma once

#include <memory>
#include <variant>
#include <vector>

#include "consensus/env.hpp"
#include "core/two_step.hpp"
#include "omega/omega.hpp"

namespace twostep::core {

/// Wire type: consensus messages or failure-detector heartbeats.
using OmegaMessage = std::variant<Message, omega::Heartbeat>;

struct WithOmegaOptions {
  Mode mode = Mode::kTask;
  sim::Tick delta = 1;
  SelectionPolicy selection_policy = SelectionPolicy::kPaper;
  /// Heartbeat period and suspicion timeout.  A peer's first timeout is drawn
  /// from [suspect_timeout/2, suspect_timeout]; each false suspicion doubles
  /// the range, up to 16 x suspect_timeout, so it need not cover delta + period.
  sim::Tick heartbeat_period = 0;   ///< 0: defaults to delta
  sim::Tick suspect_timeout = 0;    ///< 0: defaults to 2*delta + period
};

/// One process of the composed protocol.  Satisfies the Cluster<P> contract.
class TwoStepWithOmega {
 public:
  using Message = OmegaMessage;

  TwoStepWithOmega(consensus::Env<Message>& env, consensus::SystemConfig config,
                   WithOmegaOptions options);

  void start();
  void propose(consensus::Value v) { inner_->propose(v); }
  void on_message(consensus::ProcessId from, const Message& m);
  void on_timer(consensus::TimerId id);

  std::function<void(consensus::Value)> on_decide;

  [[nodiscard]] bool has_decided() const { return inner_->has_decided(); }
  [[nodiscard]] consensus::Value decided_value() const { return inner_->decided_value(); }
  [[nodiscard]] consensus::ProcessId current_leader() const { return detector_.leader(members_); }
  [[nodiscard]] TwoStepProcess& consensus_process() { return *inner_; }

 private:
  /// Adapter presenting the composed env to the inner consensus protocol.
  class InnerEnv final : public consensus::Env<core::Message> {
   public:
    explicit InnerEnv(TwoStepWithOmega& host) : host_(host) {}
    [[nodiscard]] consensus::ProcessId self() const override { return host_.env_.self(); }
    [[nodiscard]] int cluster_size() const override { return host_.env_.cluster_size(); }
    [[nodiscard]] sim::Tick now() const override { return host_.env_.now(); }
    void send(consensus::ProcessId to, const core::Message& m) override {
      host_.env_.send(to, OmegaMessage{m});
    }
    consensus::TimerId set_timer(sim::Tick delay) override {
      return host_.env_.set_timer(delay);
    }
    void cancel_timer(consensus::TimerId id) override { host_.env_.cancel_timer(id); }

   private:
    TwoStepWithOmega& host_;
  };

  /// Heartbeats every member, runs the detector's suspicion scan and
  /// re-arms the period timer.
  void heartbeat_tick();

  consensus::Env<Message>& env_;
  InnerEnv inner_env_;
  std::vector<consensus::ProcessId> members_;  ///< 0..n-1
  sim::Tick period_;
  omega::Detector detector_;
  consensus::TimerId heartbeat_timer_{};
  std::unique_ptr<TwoStepProcess> inner_;
};

}  // namespace twostep::core
