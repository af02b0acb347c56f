#include "core/two_step.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/log.hpp"

namespace twostep::core {

using consensus::Ballot;
using consensus::ProcessId;
using consensus::TimerId;
using consensus::Value;

namespace {

/// Adds q to the sorted vector `set` unless it is there already.
void insert_sorted(std::vector<ProcessId>& set, ProcessId q) {
  const auto it = std::ranges::lower_bound(set, q);
  if (it == set.end() || *it != q) set.insert(it, q);
}

}  // namespace

TwoStepProcess::TwoStepProcess(consensus::Env<Message>& env, consensus::SystemConfig config,
                               Options options)
    : env_(env), config_(config), options_(std::move(options)) {
  if (options_.delta <= 0) throw std::invalid_argument("TwoStepProcess: delta must be > 0");
  if (obs::MetricsRegistry* reg = options_.probe.metrics) {
    stats_.decisions_fast = &reg->counter("decisions.fast");
    stats_.decisions_slow = &reg->counter("decisions.slow");
    stats_.decisions_learned = &reg->counter("decisions.learned");
    stats_.ballots_started = &reg->counter("ballots.started");
    for (int i = 0; i < 7; ++i) {
      const auto branch = static_cast<SelectionBranch>(i);
      stats_.selection[i] =
          &reg->counter(std::string("selection.") + to_cstring(branch));
    }
    stats_.decision_latency = &reg->log_histogram("decision_latency");
  }
}

void TwoStepProcess::start() {
  if (started_) return;
  started_ = true;
  // §C.1: the timer is initially set to 2Δ, giving the fast path just
  // enough time; re-armed with 5Δ afterwards.
  if (options_.enable_ballot_timer) env_.set_timer(2 * options_.delta);
}

void TwoStepProcess::restore(const AcceptorState& s) {
  bal_ = s.bal;
  vbal_ = s.vbal;
  val_ = s.val;
  proposer_ = s.proposer;
  initial_val_ = s.initial;
  decided_ = s.decided;
  // A restored decision must stay silent: it was notified and broadcast in
  // the pre-crash incarnation (or the broadcast is covered by the durable
  // votes of the deciding quorum).
  decide_notified_ = !decided_.is_bottom();
}

void TwoStepProcess::copy_state_from(const TwoStepProcess& other) {
  initial_val_ = other.initial_val_;
  val_ = other.val_;
  decided_ = other.decided_;
  bal_ = other.bal_;
  vbal_ = other.vbal_;
  proposer_ = other.proposer_;
  fast_voters_ = other.fast_voters_;
  led_ = other.led_;
  proposed_at_ = other.proposed_at_;
  started_ = other.started_;
  decide_notified_ = other.decide_notified_;
}

TwoStepProcess::LedBallot* TwoStepProcess::find_led(Ballot b) {
  const auto it = std::ranges::lower_bound(led_, b, {}, &LedBallot::ballot);
  return it != led_.end() && it->ballot == b ? &*it : nullptr;
}

TwoStepProcess::LedBallot& TwoStepProcess::led_ballot(Ballot b) {
  const auto it = std::ranges::lower_bound(led_, b, {}, &LedBallot::ballot);
  if (it != led_.end() && it->ballot == b) return *it;
  LedBallot& added = *led_.insert(it, LedBallot{});
  added.ballot = b;
  // At most one 1B and one 2B from each process.
  added.onebs.reserve(static_cast<std::size_t>(config_.n));
  added.twobs.reserve(static_cast<std::size_t>(config_.n));
  return added;
}

void TwoStepProcess::propose(Value v) {
  if (v.is_bottom()) throw std::invalid_argument("propose: value must not be bottom");
  // Figure 1, line 2: only a process that has not yet voted adopts and
  // broadcasts its own proposal.  (In object mode a process that already
  // voted for someone else's value keeps initial_val = ⊥ and will learn the
  // decision via Decide.)
  if (!val_.is_bottom()) return;
  if (!initial_val_.is_bottom()) return;  // propose is at-most-once
  initial_val_ = v;
  proposed_at_ = env_.now();
  env_.broadcast_others(ProposeMsg{v});
  maybe_decide_fast();  // n - e == 1 degenerate case decides immediately
}

consensus::ProcessId TwoStepProcess::omega_leader() const {
  return options_.leader_of ? options_.leader_of() : ProcessId{0};
}

Ballot TwoStepProcess::next_owned_ballot() const {
  const auto n = static_cast<Ballot>(config_.n);
  const auto self = static_cast<Ballot>(env_.self());
  const Ballot base = bal_ + 1;
  const Ballot shift = ((self - base) % n + n) % n;
  return base + shift;
}

void TwoStepProcess::on_timer(TimerId) {
  if (has_decided()) return;
  if (!options_.enable_ballot_timer) return;
  env_.set_timer(5 * options_.delta);
  if (omega_leader() != env_.self()) return;
  const Ballot b = next_owned_ballot();
  TWOSTEP_LOG(kDebug) << "p" << env_.self() << " starts ballot " << b;
  if (stats_.ballots_started) stats_.ballots_started->add();
  options_.probe.trace([&] {
    return obs::TraceEvent{.kind = obs::EventKind::kBallotStart, .at = env_.now(),
                           .process = env_.self(), .ballot = b};
  });
  // Broadcast to Π including self: our own 1A moves us to ballot b and our
  // own 1B joins the quorum.
  env_.broadcast_all(OneAMsg{b});
}

void TwoStepProcess::on_message(ProcessId from, const Message& m) {
  std::visit([&](const auto& msg) { handle(from, msg); }, m);
}

void TwoStepProcess::handle(ProcessId from, const ProposeMsg& m) {
  // Figure 1, line 7 precondition.
  if (bal_ != 0 || !val_.is_bottom() || m.v < initial_val_) return;
  // Red-line condition (object mode): a proposer only votes for a foreign
  // proposal equal to its own.
  if (options_.mode == Mode::kObject && !initial_val_.is_bottom() && m.v != initial_val_) return;
  val_ = m.v;
  proposer_ = from;
  options_.probe.trace([&] {
    return obs::TraceEvent{.kind = obs::EventKind::kPhaseTransition, .at = env_.now(),
                           .process = env_.self(), .peer = from, .ballot = 0,
                           .value = m.v, .label = "fast_vote"};
  });
  env_.send(from, TwoBMsg{0, m.v});
}

void TwoStepProcess::maybe_decide_fast() {
  // Figure 1, line 8, first disjunct: bal = 0, |P ∪ {p_i}| >= n - e,
  // val ∈ {⊥, v} where v is our own proposal.
  if (has_decided() || bal_ != 0) return;
  if (initial_val_.is_bottom()) return;
  if (!val_.is_bottom() && val_ != initial_val_) return;
  if (static_cast<int>(fast_voters_.size()) + 1 >= config_.fast_quorum())
    decide(initial_val_, DecideKind::kFast);
}

void TwoStepProcess::handle(ProcessId from, const TwoBMsg& m) {
  if (m.b == 0) {
    // A fast-path vote for our own proposal.
    if (initial_val_.is_bottom() || m.v != initial_val_) return;
    insert_sorted(fast_voters_, from);
    maybe_decide_fast();
    return;
  }
  // Slow-path vote for a ballot we lead (line 8, second disjunct).
  LedBallot* const led = find_led(m.b);
  if (led == nullptr || !led->sent_two_a || m.v != led->two_a_value) return;
  insert_sorted(led->twobs, from);
  if (static_cast<int>(led->twobs.size()) >= config_.classic_quorum())
    decide(m.v, DecideKind::kSlow);
}

void TwoStepProcess::handle(ProcessId, const DecideMsg& m) {
  decide(m.v, DecideKind::kLearned);
}

void TwoStepProcess::handle(ProcessId from, const OneAMsg& m) {
  if (m.b <= bal_) return;
  bal_ = m.b;
  options_.probe.trace([&] {
    return obs::TraceEvent{.kind = obs::EventKind::kPhaseTransition, .at = env_.now(),
                           .process = env_.self(), .peer = from, .ballot = m.b,
                           .label = "join_ballot"};
  });
  env_.send(from, OneBMsg{m.b, vbal_, val_, proposer_, decided_, initial_val_});
}

void TwoStepProcess::handle(ProcessId from, const OneBMsg& m) {
  // Only the owner of ballot b aggregates its 1Bs.
  if (m.b <= 0 || m.b % config_.n != static_cast<Ballot>(env_.self())) return;
  LedBallot& led = led_ballot(m.b);
  if (std::ranges::none_of(led.onebs, [from](const auto& e) { return e.first == from; }))
    led.onebs.emplace_back(from, m);
  maybe_send_two_a(led);
}

void TwoStepProcess::maybe_send_two_a(LedBallot& led) {
  // `led` is used only before the first env_ call below.
  if (led.sent_two_a) return;
  const int quorum = config_.classic_quorum();
  if (static_cast<int>(led.onebs.size()) < quorum) return;
  const Ballot b = led.ballot;

  SelectionInput in;
  in.config = config_;
  in.own_initial = initial_val_;
  in.policy = options_.selection_policy;
  const auto peer = [](const std::pair<ProcessId, OneBMsg>& e) {
    const OneBMsg& ob = e.second;
    return PeerState{e.first, ob.vbal, ob.val, ob.proposer, ob.decided, ob.initial};
  };

  // The exact quorum's verdict, then the completion's.
  SelectionResult verdicts[2];
  int ran = 0;
  if (!led.exhausted_fast_path) {
    // The paper's rule is stated for |Q| = n - f exactly; the uniqueness
    // argument of Lemma 7 / C.2 relies on it.  Use the first n - f arrivals.
    in.peers.reserve(static_cast<std::size_t>(quorum));
    for (int i = 0; i < quorum; ++i)
      in.peers.push_back(peer(led.onebs[static_cast<std::size_t>(i)]));
    verdicts[ran++] = select_value(in);
    // Nothing to propose: the exact quorum was entirely voteless (and we
    // never proposed).  Since those n - f processes are now locked out of
    // ballot 0 and of every ballot < b, no decision can exist or ever arise
    // at a ballot < b; adopting *any* vote seen in later 1Bs is safe.  This
    // keeps a leader that never proposed from stalling pending propose()
    // invocations of processes outside the quorum (wait-freedom).
    led.exhausted_fast_path = verdicts[0].branch == SelectionBranch::kNone;
  }
  if (led.exhausted_fast_path) {
    // Completion: re-run the rule over everything received so far, in
    // sender order.
    in.peers.clear();
    in.peers.reserve(led.onebs.size());
    for (const auto& e : led.onebs) in.peers.push_back(peer(e));
    std::ranges::sort(in.peers, {}, &PeerState::q);
    verdicts[ran++] = select_value(in);
  }
  const SelectionResult res = verdicts[ran - 1];
  if (res.branch != SelectionBranch::kNone) {
    led.sent_two_a = true;
    led.two_a_value = res.value;
  }

  for (int i = 0; i < ran; ++i) note_selection(b, verdicts[i]);
  if (res.branch == SelectionBranch::kNone) return;  // still nothing; keep waiting
  TWOSTEP_LOG(kDebug) << "p" << env_.self() << " 2A(" << b << ", " << res.value.to_string()
                      << ") branch " << static_cast<int>(res.branch);
  env_.broadcast_all(TwoAMsg{b, res.value});
}

void TwoStepProcess::handle(ProcessId from, const TwoAMsg& m) {
  if (bal_ > m.b) return;  // precondition: bal <= b
  val_ = m.v;
  bal_ = m.b;
  vbal_ = m.b;
  options_.probe.trace([&] {
    return obs::TraceEvent{.kind = obs::EventKind::kPhaseTransition, .at = env_.now(),
                           .process = env_.self(), .peer = from, .ballot = m.b,
                           .value = m.v, .label = "accept"};
  });
  env_.send(from, TwoBMsg{m.b, m.v});
}

void TwoStepProcess::note_selection(Ballot b, const SelectionResult& res) {
  if (obs::Counter* c = stats_.selection[static_cast<int>(res.branch)]) c->add();
  options_.probe.trace([&] {
    return obs::TraceEvent{.kind = obs::EventKind::kSelectionVerdict, .at = env_.now(),
                           .process = env_.self(), .ballot = b, .value = res.value,
                           .label = to_cstring(res.branch)};
  });
}

void TwoStepProcess::decide(Value v, DecideKind kind) {
  if (decide_notified_) return;
  val_ = v;
  decided_ = v;
  decide_notified_ = true;
  TWOSTEP_LOG(kDebug) << "p" << env_.self() << " decides " << v.to_string();
  const char* label = kind == DecideKind::kFast ? "fast"
                      : kind == DecideKind::kSlow ? "slow" : "learned";
  obs::Counter* counter = kind == DecideKind::kFast ? stats_.decisions_fast
                          : kind == DecideKind::kSlow ? stats_.decisions_slow
                                                      : stats_.decisions_learned;
  if (counter) counter->add();
  if (stats_.decision_latency && proposed_at_ >= 0)
    stats_.decision_latency->record(env_.now() - proposed_at_);
  options_.probe.trace([&] {
    return obs::TraceEvent{.kind = obs::EventKind::kDecision, .at = env_.now(),
                           .process = env_.self(), .ballot = bal_, .value = v,
                           .label = label};
  });
  if (kind != DecideKind::kLearned) env_.broadcast_others(DecideMsg{v});
  if (on_decide) on_decide(v);
}

}  // namespace twostep::core
