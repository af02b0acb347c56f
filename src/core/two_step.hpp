// The paper's protocol (Figure 1): f-resilient e-two-step consensus with
// the optimal number of processes.
//
//  * Task mode (red lines ignored):   works for n >= max{2e+f,   2f+1}.
//  * Object mode (red lines active):  works for n >= max{2e+f-1, 2f+1}.
//
// Structure: ballot 0 is the *fast ballot* — every proposer broadcasts
// Propose(v); a process votes for the first proposal it can accept (it must
// be >= its own proposal, and in object mode equal to it if it proposed);
// the proposer decides once n-e processes including itself voted for v.
// Slow ballots are Paxos-like (1A/1B/2A/2B) with the novel value-selection
// rule in select_value() that recovers possible fast-path decisions.
// Decisions are disseminated with Decide messages.  New ballots are started
// by the Ω-elected leader on a timer: 2Δ initially (just enough for the fast
// path), 5Δ thereafter (§C.1).
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "consensus/env.hpp"
#include "consensus/types.hpp"
#include "core/messages.hpp"
#include "core/selection.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace twostep::core {

/// Task vs object formulation (Theorems 5 and 6).  The only code difference
/// is the red-line conditions of Figure 1.
enum class Mode { kTask, kObject };

/// Tunables and dependencies of one protocol instance.
struct Options {
  Mode mode = Mode::kTask;

  /// The network's Δ bound, used for the new-ballot timer.
  sim::Tick delta = 1;

  /// Ω output at this process (§C.1).  When it returns self(), the timer
  /// handler starts a new ballot.  Defaults (empty) to "always p0".
  std::function<consensus::ProcessId()> leader_of;

  /// If false, the process never starts slow ballots (used by tests that
  /// need pure fast-path traces).  It still *participates* in ballots others
  /// start.
  bool enable_ballot_timer = true;

  /// Value-selection variant; anything but kPaper is for the ablation bench.
  SelectionPolicy selection_policy = SelectionPolicy::kPaper;

  /// Structured tracing + metrics (off by default; see obs/trace.hpp).
  /// ScenarioRunner forwards the same probe to the harness layers.
  obs::Probe probe;
};

/// One process of the protocol.  See Cluster<P> for the harness contract.
class TwoStepProcess {
 public:
  using Message = core::Message;

  TwoStepProcess(consensus::Env<Message>& env, consensus::SystemConfig config, Options options);

  /// Arms the initial 2Δ new-ballot timer.  Call once at process start.
  void start();

  /// Task mode: the process's input value, invoked at startup.
  /// Object mode: the propose(v) operation; the decision is delivered via
  /// on_decide.  Per Figure 1 line 2, a process that has already voted for
  /// another proposal does not send its own.
  void propose(consensus::Value v);

  void on_message(consensus::ProcessId from, const Message& m);
  void on_timer(consensus::TimerId id);

  /// Fired exactly once, when this process decides.
  std::function<void(consensus::Value)> on_decide;

  /// The acceptor-critical slice of Figure 1's state: everything a 1B
  /// snapshot or a fast-path vote reveals to other processes.  This is what
  /// must survive a crash — the quorum-intersection arguments (Lemma 7 /
  /// Lemma C.2) assume a restarted acceptor still holds its promises and
  /// votes.  Leader-side bookkeeping (led_, fast_voters_) is deliberately
  /// excluded: losing it only costs liveness, never safety.
  struct AcceptorState {
    consensus::Ballot bal = 0;
    consensus::Ballot vbal = 0;
    consensus::Value val;
    consensus::ProcessId proposer = consensus::kNoProcess;
    consensus::Value initial;
    consensus::Value decided;
    friend bool operator==(const AcceptorState&, const AcceptorState&) = default;
  };
  [[nodiscard]] AcceptorState acceptor_state() const noexcept {
    return {bal_, vbal_, val_, proposer_, initial_val_, decided_};
  }
  /// Crash recovery: reinstates a previously captured state.  Must be called
  /// before any message or proposal is processed.  A restored decision is
  /// marked already-notified — on_decide does not re-fire and no Decide
  /// broadcast is sent (peers either decided long ago or will learn via the
  /// normal dissemination paths).
  void restore(const AcceptorState& s);

  /// The Decide retransmission set: one DecideMsg when decided, empty
  /// otherwise.  The live runtime resends these whenever a peer link
  /// (re)establishes, so a replica that missed the original broadcast
  /// (crashed, partitioned, queue overflow) still learns the decision —
  /// pure retransmission, no acceptor-state change.
  [[nodiscard]] std::vector<Message> decide_messages() const {
    if (decided_.is_bottom()) return {};
    return {Message{DecideMsg{decided_}}};
  }

  /// Replaces the Ω leader hint.  Takes effect on the next timer firing:
  /// a new ballot is started only when the hint names this process, so a
  /// live failure detector can be installed mid-flight without touching
  /// any acceptor state.
  void set_leader_of(std::function<consensus::ProcessId()> leader_of) {
    options_.leader_of = std::move(leader_of);
  }

  // --- observable state (for tests, monitors and 1B snapshots) ---
  [[nodiscard]] bool has_decided() const noexcept { return !decided_.is_bottom(); }
  [[nodiscard]] consensus::Value decided_value() const noexcept { return decided_; }
  [[nodiscard]] consensus::Ballot ballot() const noexcept { return bal_; }
  [[nodiscard]] consensus::Ballot vote_ballot() const noexcept { return vbal_; }
  [[nodiscard]] consensus::Value vote_value() const noexcept { return val_; }
  [[nodiscard]] consensus::Value initial_value() const noexcept { return initial_val_; }
  [[nodiscard]] consensus::ProcessId vote_proposer() const noexcept { return proposer_; }

  /// Feeds this process's complete state to `h`, one std::uint64_t word at a
  /// time, for the model checker's visited-state table: the Figure 1 fields,
  /// the fast voters, every led ballot (its 1Bs in arrival order, 2A flags
  /// and value, 2B voters), and the start and notification flags.  Leaves
  /// out proposed_at_, a clock reading that only feeds a metric.
  template <typename H>
  void digest(H& h) const {
    digest(h, initial_val_);
    digest(h, val_);
    digest(h, decided_);
    h(static_cast<std::uint64_t>(bal_));
    h(static_cast<std::uint64_t>(vbal_));
    h(static_cast<std::uint64_t>(proposer_));
    h(fast_voters_.size());
    for (const consensus::ProcessId q : fast_voters_) h(static_cast<std::uint64_t>(q));
    h(led_.size());
    for (const LedBallot& led : led_) {
      h(static_cast<std::uint64_t>(led.ballot));
      h(led.onebs.size());
      for (const auto& [q, oneb] : led.onebs) {
        h(static_cast<std::uint64_t>(q));
        digest(h, oneb);
      }
      h(led.sent_two_a);
      h(led.exhausted_fast_path);
      digest(h, led.two_a_value);
      h(led.twobs.size());
      for (const consensus::ProcessId q : led.twobs) h(static_cast<std::uint64_t>(q));
    }
    h(started_);
    h(decide_notified_);
  }

  /// Copies `other`'s complete state: the fields the digest hook covers and
  /// proposed_at_.  Keeps this process's Env, options, metric handles and
  /// on_decide.  For the model checker's DirectDrive::restore_from.
  void copy_state_from(const TwoStepProcess& other);

  /// Feeds one message's content to `h`.
  template <typename H>
  static void digest(H& h, const Message& m) {
    h(m.index());
    std::visit(
        [&h](const auto& msg) {
          using T = std::decay_t<decltype(msg)>;
          if constexpr (std::is_same_v<T, ProposeMsg> || std::is_same_v<T, DecideMsg>) {
            digest(h, msg.v);
          } else if constexpr (std::is_same_v<T, OneAMsg>) {
            h(static_cast<std::uint64_t>(msg.b));
          } else if constexpr (std::is_same_v<T, OneBMsg>) {
            digest(h, msg);
          } else {  // TwoAMsg, TwoBMsg
            h(static_cast<std::uint64_t>(msg.b));
            digest(h, msg.v);
          }
        },
        m);
  }

 private:
  template <typename H>
  static void digest(H& h, consensus::Value v) {
    h(v.is_bottom());
    h(v.is_bottom() ? 0 : static_cast<std::uint64_t>(v.get()));
  }
  template <typename H>
  static void digest(H& h, const OneBMsg& m) {
    h(static_cast<std::uint64_t>(m.b));
    h(static_cast<std::uint64_t>(m.vbal));
    digest(h, m.val);
    h(static_cast<std::uint64_t>(m.proposer));
    digest(h, m.decided);
    digest(h, m.initial);
  }

  /// How a decision was reached — the distinction the paper (and the
  /// fast-path metrics) care about.
  enum class DecideKind {
    kFast,     ///< line 8, first disjunct: n-e fast votes at ballot 0
    kSlow,     ///< 2B quorum in a ballot we led
    kLearned,  ///< Decide message from another process
  };

  void handle(consensus::ProcessId from, const ProposeMsg& m);
  void handle(consensus::ProcessId from, const OneAMsg& m);
  void handle(consensus::ProcessId from, const OneBMsg& m);
  void handle(consensus::ProcessId from, const TwoAMsg& m);
  void handle(consensus::ProcessId from, const TwoBMsg& m);
  void handle(consensus::ProcessId from, const DecideMsg& m);

  /// Line 8, fast disjunct: decide once |fast_voters_| + 1 >= n - e and our
  /// own vote does not conflict with our proposal.
  void maybe_decide_fast();

  struct LedBallot;

  /// Runs the selection rule for a ballot we lead and sends 2A if a value
  /// is determined.  Called as 1Bs accumulate.
  void maybe_send_two_a(LedBallot& led);

  /// Records the decision, notifies on_decide, broadcasts Decide (except
  /// when merely learning one).
  void decide(consensus::Value v, DecideKind kind);

  /// Records a selection verdict with the probe (event + branch counter).
  void note_selection(consensus::Ballot b, const SelectionResult& res);

  /// Smallest ballot > bal_ owned by this process (b mod n == self).
  [[nodiscard]] consensus::Ballot next_owned_ballot() const;

  [[nodiscard]] consensus::ProcessId omega_leader() const;

  consensus::Env<Message>& env_;
  consensus::SystemConfig config_;
  Options options_;

  // Figure 1 state.
  consensus::Value initial_val_;                          // 𝗂𝗇𝗂𝗍𝗂𝖺𝗅_𝗏𝖺𝗅
  consensus::Value val_;                                  // 𝗏𝖺𝗅
  consensus::Value decided_;                              // 𝖽𝖾𝖼𝗂𝖽𝖾𝖽
  consensus::Ballot bal_ = 0;                             // 𝖻𝖺𝗅
  consensus::Ballot vbal_ = 0;                            // 𝗏𝖻𝖺𝗅
  consensus::ProcessId proposer_ = consensus::kNoProcess; // 𝗉𝗋𝗈𝗉𝗈𝗌𝖾𝗋

  // Fast-path bookkeeping: who voted for our proposal at ballot 0, sorted.
  std::vector<consensus::ProcessId> fast_voters_;

  // Slow-path bookkeeping for ballots we lead.
  struct LedBallot {
    consensus::Ballot ballot = 0;
    /// One 1B per sender, in arrival order: the first n-f are the quorum Q.
    std::vector<std::pair<consensus::ProcessId, OneBMsg>> onebs;
    bool sent_two_a = false;
    /// Set once the first exact-(n-f) evaluation returned "nothing to
    /// propose": from then on no fast decision can ever occur (n-f voteless
    /// processes are locked out of ballot 0), so any later-seen vote may be
    /// adopted directly.
    bool exhausted_fast_path = false;
    consensus::Value two_a_value;
    std::vector<consensus::ProcessId> twobs;  // votes for (b, two_a_value), sorted
  };
  /// Sorted by ballot.  A send can re-enter the process and insert into it,
  /// so no reference into it is held across an env_ call.
  std::vector<LedBallot> led_;

  /// The ballot b we lead, or null if it has no bookkeeping yet.
  [[nodiscard]] LedBallot* find_led(consensus::Ballot b);
  /// The ballot b we lead, its bookkeeping added if new.
  LedBallot& led_ballot(consensus::Ballot b);

  // Metric handles, resolved once at construction (null when metrics are
  // off): the hot paths pay one pointer test, never a registry lookup.
  struct {
    obs::Counter* decisions_fast = nullptr;
    obs::Counter* decisions_slow = nullptr;
    obs::Counter* decisions_learned = nullptr;
    obs::Counter* ballots_started = nullptr;
    obs::Counter* selection[7] = {};  ///< indexed by SelectionBranch
    obs::LogHistogram* decision_latency = nullptr;  ///< propose -> decide, proposers only
  } stats_;
  sim::Tick proposed_at_ = -1;  ///< when propose() took our value (-1: never)

  bool started_ = false;
  bool decide_notified_ = false;
};

}  // namespace twostep::core
