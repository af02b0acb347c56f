// Fast Paxos (Lamport 2006a), single-shot — the classical protocol matching
// Lamport's lower bound max{2e+f+1, 2f+1}.
//
// Round 0 is the fast round: proposers send their value straight to the
// acceptors; an acceptor votes for the *first* proposal it receives (no
// value-ordering condition — that refinement is what the paper's protocol
// adds) and broadcasts its vote.  Any process that observes a fast quorum of
// n-e matching round-0 votes decides — hence every correct process can
// decide at 2Δ, satisfying Lamport's strong fast-decision requirement, but
// only when n >= 2e+f+1.  Coordinated recovery on slow ballots uses the
// standard O4 value-picking rule: with a 1B quorum Q of n-f, a value with at
// least n-e-f round-0 votes in Q may have been fast-chosen and must be
// re-proposed; with n >= 2e+f+1 at most one such value exists.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <variant>

#include "consensus/env.hpp"
#include "consensus/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace twostep::fastpaxos {

struct FastProposeMsg {  // proposer -> acceptors, round 0
  consensus::Value v;
  friend bool operator==(const FastProposeMsg&, const FastProposeMsg&) = default;
};
struct PrepareMsg {  // 1a
  consensus::Ballot b = 0;
  friend bool operator==(const PrepareMsg&, const PrepareMsg&) = default;
};
struct PromiseMsg {  // 1b
  consensus::Ballot b = 0;
  consensus::Ballot vbal = -1;
  consensus::Value vval;
  /// The sender's own proposal, if any — a liveness completion mirroring the
  /// core protocol's (see core/selection.hpp): it lets a never-proposing
  /// coordinator finish a recovery whose quorum saw no votes.
  consensus::Value initial;
  friend bool operator==(const PromiseMsg&, const PromiseMsg&) = default;
};
struct AcceptMsg {  // 2a (slow ballots)
  consensus::Ballot b = 0;
  consensus::Value v;
  friend bool operator==(const AcceptMsg&, const AcceptMsg&) = default;
};
struct AcceptedMsg {  // 2b, broadcast; b == 0 votes count toward fast quorums
  consensus::Ballot b = 0;
  consensus::Value v;
  friend bool operator==(const AcceptedMsg&, const AcceptedMsg&) = default;
};

using Message =
    std::variant<FastProposeMsg, PrepareMsg, PromiseMsg, AcceptMsg, AcceptedMsg>;

/// Static message-type label (ADL-found by obs::message_label).
[[nodiscard]] constexpr const char* message_name(const Message& m) noexcept {
  switch (m.index()) {
    case 0: return "FastPropose";
    case 1: return "Prepare";
    case 2: return "Promise";
    case 3: return "Accept";
    default: return "Accepted";
  }
}

struct Options {
  sim::Tick delta = 1;
  std::function<consensus::ProcessId()> leader_of;  ///< Ω; defaults to p0
  bool enable_ballot_timer = true;
  obs::Probe probe;  ///< tracing + metrics; off by default
};

class FastPaxosProcess {
 public:
  using Message = fastpaxos::Message;

  FastPaxosProcess(consensus::Env<Message>& env, consensus::SystemConfig config,
                   Options options);

  void start();
  void propose(consensus::Value v);
  void on_message(consensus::ProcessId from, const Message& m);
  void on_timer(consensus::TimerId id);

  std::function<void(consensus::Value)> on_decide;

  /// Acceptor-critical durable state: the promise (bal), the last vote
  /// (vbal, vval), our own proposal (a restarted proposer must not propose a
  /// different value under the same identity) and the decision.  The
  /// accepted_ vote tallies are leader-side bookkeeping and recoverable
  /// from the network, so they are not part of it.
  struct AcceptorState {
    consensus::Ballot bal = 0;
    consensus::Ballot vbal = -1;
    consensus::Value vval;
    consensus::Value my_value;
    consensus::Value decided;
    friend bool operator==(const AcceptorState&, const AcceptorState&) = default;
  };
  [[nodiscard]] AcceptorState acceptor_state() const noexcept {
    return {bal_, vbal_, vval_, my_value_, decided_};
  }
  /// Crash recovery: reinstates a captured state.  Call before any message;
  /// a restored decision does not re-fire on_decide.
  void restore(const AcceptorState& s);

  [[nodiscard]] bool has_decided() const noexcept { return !decided_.is_bottom(); }
  [[nodiscard]] consensus::Value decided_value() const noexcept { return decided_; }
  [[nodiscard]] consensus::Ballot ballot() const noexcept { return bal_; }

 private:
  void handle(consensus::ProcessId from, const FastProposeMsg& m);
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

  consensus::Ballot bal_ = 0;    ///< current ballot (0 = fast round)
  consensus::Ballot vbal_ = -1;  ///< ballot of last vote (-1 = none)
  consensus::Value vval_;
  consensus::Value my_value_;
  consensus::Value decided_;

  struct LedBallot {
    std::map<consensus::ProcessId, PromiseMsg> promises;
    bool sent_accept = false;
  };
  std::map<consensus::Ballot, LedBallot> led_;

  std::map<std::pair<consensus::Ballot, consensus::Value>, std::set<consensus::ProcessId>>
      accepted_;

  // Metric handles resolved once at construction (null when metrics off).
  struct {
    obs::Counter* decisions_fast = nullptr;  ///< fast quorum at round 0
    obs::Counter* decisions_slow = nullptr;
    obs::Counter* ballots_started = nullptr;
    obs::LogHistogram* decision_latency = nullptr;  ///< propose -> decide, proposers only
  } stats_;
  sim::Tick proposed_at_ = -1;  ///< when propose() took our value (-1: never)

  bool started_ = false;
  bool decide_notified_ = false;
};

}  // namespace twostep::fastpaxos
