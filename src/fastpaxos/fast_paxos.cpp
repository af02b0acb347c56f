#include "fastpaxos/fast_paxos.hpp"

#include <stdexcept>

namespace twostep::fastpaxos {

using consensus::Ballot;
using consensus::ProcessId;
using consensus::TimerId;
using consensus::Value;

FastPaxosProcess::FastPaxosProcess(consensus::Env<Message>& env, consensus::SystemConfig config,
                                   Options options)
    : env_(env), config_(config), options_(std::move(options)) {
  if (options_.delta <= 0) throw std::invalid_argument("FastPaxosProcess: delta must be > 0");
  if (obs::MetricsRegistry* reg = options_.probe.metrics) {
    stats_.decisions_fast = &reg->counter("decisions.fast");
    stats_.decisions_slow = &reg->counter("decisions.slow");
    stats_.ballots_started = &reg->counter("ballots.started");
    stats_.decision_latency = &reg->log_histogram("decision_latency");
  }
}

void FastPaxosProcess::start() {
  if (started_) return;
  started_ = true;
  if (options_.enable_ballot_timer) env_.set_timer(2 * options_.delta);
}

void FastPaxosProcess::restore(const AcceptorState& s) {
  bal_ = s.bal;
  vbal_ = s.vbal;
  vval_ = s.vval;
  my_value_ = s.my_value;
  decided_ = s.decided;
  decide_notified_ = !decided_.is_bottom();
}

void FastPaxosProcess::propose(Value v) {
  if (v.is_bottom()) throw std::invalid_argument("propose: value must not be bottom");
  if (!my_value_.is_bottom()) return;
  my_value_ = v;
  proposed_at_ = env_.now();
  // Fast round: the proposal goes straight to all acceptors (incl. self; the
  // self-delivery registers our own round-0 vote).
  env_.broadcast_all(FastProposeMsg{v});
}

ProcessId FastPaxosProcess::omega_leader() const {
  return options_.leader_of ? options_.leader_of() : ProcessId{0};
}

Ballot FastPaxosProcess::next_owned_ballot() const {
  const auto n = static_cast<Ballot>(config_.n);
  const auto self = static_cast<Ballot>(env_.self());
  const Ballot base = bal_ + 1;
  const Ballot shift = ((self - base) % n + n) % n;
  return base + shift;
}

void FastPaxosProcess::on_timer(TimerId) {
  if (has_decided()) return;
  if (!options_.enable_ballot_timer) return;
  env_.set_timer(5 * options_.delta);
  if (omega_leader() != env_.self()) return;
  const Ballot b = next_owned_ballot();
  if (stats_.ballots_started) stats_.ballots_started->add();
  options_.probe.trace([&] {
    return obs::TraceEvent{.kind = obs::EventKind::kBallotStart, .at = env_.now(),
                           .process = env_.self(), .ballot = b};
  });
  env_.broadcast_all(PrepareMsg{b});
}

void FastPaxosProcess::on_message(ProcessId from, const Message& m) {
  std::visit([&](const auto& msg) { handle(from, msg); }, m);
}

void FastPaxosProcess::handle(ProcessId, const FastProposeMsg& m) {
  // An acceptor votes for the first round-0 proposal it receives, provided
  // it is still in the fast round and has not voted.
  if (bal_ != 0 || vbal_ >= 0) return;
  vbal_ = 0;
  vval_ = m.v;
  env_.broadcast_all(AcceptedMsg{0, m.v});
}

void FastPaxosProcess::handle(ProcessId from, const PrepareMsg& m) {
  if (m.b <= bal_) return;
  bal_ = m.b;
  env_.send(from, PromiseMsg{m.b, vbal_, vval_, my_value_});
}

void FastPaxosProcess::handle(ProcessId from, const PromiseMsg& m) {
  if (m.b <= 0 || m.b % config_.n != static_cast<Ballot>(env_.self())) return;
  auto& led = led_[m.b];
  if (led.sent_accept) return;
  led.promises.emplace(from, m);
  if (static_cast<int>(led.promises.size()) < config_.classic_quorum()) return;

  // Value-picking rule.  Slow-ballot votes supersede; otherwise any value
  // with >= n-e-f round-0 votes in the quorum may have been fast-chosen.
  Ballot bmax = -1;
  for (const auto& [q, p] : led.promises) bmax = std::max(bmax, p.vbal);

  Value v;
  if (bmax > 0) {
    for (const auto& [q, p] : led.promises)
      if (p.vbal == bmax) {
        v = p.vval;
        break;
      }
  } else if (bmax == 0) {
    std::map<Value, int> votes;
    for (const auto& [q, p] : led.promises)
      if (p.vbal == 0 && !p.vval.is_bottom()) ++votes[p.vval];
    const int threshold = config_.n - config_.e - config_.f;
    // With n >= 2e+f+1 at most one value reaches the threshold; taking the
    // best-supported one keeps the (deliberately) below-bound instantiations
    // used by the T4 experiment deterministic.
    int best_count = 0;
    for (const auto& [cand, count] : votes) {
      if (count >= threshold && count > best_count) {
        best_count = count;
        v = cand;
      }
    }
  }
  if (v.is_bottom()) v = my_value_;
  if (v.is_bottom()) {
    // Liveness completion: once no value reaches the recovery threshold in
    // a full quorum, no fast decision exists or can arise, so any proposed
    // value (surviving as a vote or as a proposer's own value) is safe.
    for (const auto& [q, p] : led.promises) {
      v = std::max(v, p.vval);
      v = std::max(v, p.initial);
    }
  }
  if (v.is_bottom()) return;  // nothing to propose; wait
  led.sent_accept = true;
  env_.broadcast_all(AcceptMsg{m.b, v});
}

void FastPaxosProcess::handle(ProcessId, const AcceptMsg& m) {
  if (m.b < bal_) return;
  bal_ = m.b;
  vbal_ = m.b;
  vval_ = m.v;
  env_.broadcast_all(AcceptedMsg{m.b, m.v});
}

void FastPaxosProcess::handle(ProcessId from, const AcceptedMsg& m) {
  auto& voters = accepted_[{m.b, m.v}];
  voters.insert(from);
  const int needed = m.b == 0 ? config_.fast_quorum() : config_.classic_quorum();
  if (static_cast<int>(voters.size()) >= needed) decide(m.b, m.v);
}

void FastPaxosProcess::decide(Ballot b, Value v) {
  if (decide_notified_) return;
  decided_ = v;
  decide_notified_ = true;
  obs::Counter* counter = b == 0 ? stats_.decisions_fast : stats_.decisions_slow;
  if (counter) counter->add();
  if (stats_.decision_latency && proposed_at_ >= 0)
    stats_.decision_latency->record(env_.now() - proposed_at_);
  options_.probe.trace([&] {
    return obs::TraceEvent{.kind = obs::EventKind::kDecision, .at = env_.now(),
                           .process = env_.self(), .ballot = b, .value = v,
                           .label = b == 0 ? "fast" : "slow"};
  });
  if (on_decide) on_decide(v);
}

}  // namespace twostep::fastpaxos
