// Classical single-decree Paxos (baseline).
//
// Leader-driven: ballot 0 is implicitly owned by p0 and phase-1-free (the
// usual "pre-prepared initial leader" optimization the paper alludes to:
// "if the system is synchronous and the initial leader process is correct,
// these protocols can decide within two message delays").  Acceptors
// broadcast their Accepted votes to everyone, so in a failure-free
// synchronous run every process decides at 2Δ — Paxos is 0-two-step.  It is
// *not* e-two-step for any e > 0: if the initial leader is in E, no process
// can decide before a new ballot is started by a timer (> 2Δ).  The F1
// latency bench and the two-step matrix tests exercise exactly this.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <variant>

#include "consensus/env.hpp"
#include "consensus/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace twostep::paxos {

struct PrepareMsg {  // phase 1a
  consensus::Ballot b = 0;
  friend bool operator==(const PrepareMsg&, const PrepareMsg&) = default;
};
struct PromiseMsg {  // phase 1b
  consensus::Ballot b = 0;
  consensus::Ballot vbal = -1;
  consensus::Value vval;
  friend bool operator==(const PromiseMsg&, const PromiseMsg&) = default;
};
struct AcceptMsg {  // phase 2a
  consensus::Ballot b = 0;
  consensus::Value v;
  friend bool operator==(const AcceptMsg&, const AcceptMsg&) = default;
};
struct AcceptedMsg {  // phase 2b, broadcast to all so everyone learns
  consensus::Ballot b = 0;
  consensus::Value v;
  friend bool operator==(const AcceptedMsg&, const AcceptedMsg&) = default;
};

using Message = std::variant<PrepareMsg, PromiseMsg, AcceptMsg, AcceptedMsg>;

/// Static message-type label (ADL-found by obs::message_label).
[[nodiscard]] constexpr const char* message_name(const Message& m) noexcept {
  switch (m.index()) {
    case 0: return "Prepare";
    case 1: return "Promise";
    case 2: return "Accept";
    default: return "Accepted";
  }
}

struct Options {
  sim::Tick delta = 1;
  std::function<consensus::ProcessId()> leader_of;  ///< Ω; defaults to p0
  bool enable_ballot_timer = true;
  obs::Probe probe;  ///< tracing + metrics; off by default
};

/// One Paxos process (proposer + acceptor + learner roles fused, as usual
/// for consensus deployments).
class PaxosProcess {
 public:
  using Message = paxos::Message;

  PaxosProcess(consensus::Env<Message>& env, consensus::SystemConfig config, Options options);

  void start();
  void propose(consensus::Value v);
  void on_message(consensus::ProcessId from, const Message& m);
  void on_timer(consensus::TimerId id);

  std::function<void(consensus::Value)> on_decide;

  [[nodiscard]] bool has_decided() const noexcept { return !decided_.is_bottom(); }
  [[nodiscard]] consensus::Value decided_value() const noexcept { return decided_; }
  [[nodiscard]] consensus::Ballot ballot() const noexcept { return bal_; }

 private:
  void handle(consensus::ProcessId from, const PrepareMsg& m);
  void handle(consensus::ProcessId from, const PromiseMsg& m);
  void handle(consensus::ProcessId from, const AcceptMsg& m);
  void handle(consensus::ProcessId from, const AcceptedMsg& m);
  void decide(consensus::Ballot b, consensus::Value v);
  [[nodiscard]] consensus::Ballot next_owned_ballot() const;
  [[nodiscard]] consensus::ProcessId omega_leader() const;

  consensus::Env<Message>& env_;
  consensus::SystemConfig config_;
  Options options_;

  consensus::Ballot bal_ = -1;   ///< highest ballot joined (promise)
  consensus::Ballot vbal_ = -1;  ///< ballot of last vote
  consensus::Value vval_;        ///< value of last vote
  consensus::Value my_value_;    ///< own proposal
  consensus::Value decided_;

  struct LedBallot {
    std::map<consensus::ProcessId, PromiseMsg> promises;
    bool sent_accept = false;
  };
  std::map<consensus::Ballot, LedBallot> led_;

  // (ballot, value) -> acceptors that voted; everyone learns this way.
  std::map<std::pair<consensus::Ballot, consensus::Value>, std::set<consensus::ProcessId>>
      accepted_;

  // Metric handles resolved once at construction (null when metrics off).
  struct {
    obs::Counter* decisions_fast = nullptr;  ///< decided at ballot 0 (2Δ path)
    obs::Counter* decisions_slow = nullptr;
    obs::Counter* ballots_started = nullptr;
    obs::LogHistogram* decision_latency = nullptr;  ///< propose -> decide, proposers only
  } stats_;
  sim::Tick proposed_at_ = -1;  ///< when propose() took our value (-1: never)

  bool started_ = false;
  bool decide_notified_ = false;
};

}  // namespace twostep::paxos
