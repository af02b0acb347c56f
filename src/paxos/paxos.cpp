#include "paxos/paxos.hpp"

#include <stdexcept>

namespace twostep::paxos {

using consensus::Ballot;
using consensus::ProcessId;
using consensus::TimerId;
using consensus::Value;

PaxosProcess::PaxosProcess(consensus::Env<Message>& env, consensus::SystemConfig config,
                           Options options)
    : env_(env), config_(config), options_(std::move(options)) {
  if (options_.delta <= 0) throw std::invalid_argument("PaxosProcess: delta must be > 0");
  if (obs::MetricsRegistry* reg = options_.probe.metrics) {
    stats_.decisions_fast = &reg->counter("decisions.fast");
    stats_.decisions_slow = &reg->counter("decisions.slow");
    stats_.ballots_started = &reg->counter("ballots.started");
    stats_.decision_latency = &reg->log_histogram("decision_latency");
  }
}

void PaxosProcess::start() {
  if (started_) return;
  started_ = true;
  if (options_.enable_ballot_timer) env_.set_timer(2 * options_.delta);
}

void PaxosProcess::propose(Value v) {
  if (v.is_bottom()) throw std::invalid_argument("propose: value must not be bottom");
  if (!my_value_.is_bottom()) return;
  my_value_ = v;
  proposed_at_ = env_.now();
  // Ballot 0 is phase-1-free and owned by p0: the initial leader goes
  // straight to phase 2 with its own value.
  if (env_.self() == 0) {
    led_[0].sent_accept = true;
    env_.broadcast_all(AcceptMsg{0, v});
  }
}

ProcessId PaxosProcess::omega_leader() const {
  return options_.leader_of ? options_.leader_of() : ProcessId{0};
}

Ballot PaxosProcess::next_owned_ballot() const {
  const auto n = static_cast<Ballot>(config_.n);
  const auto self = static_cast<Ballot>(env_.self());
  const Ballot base = std::max<Ballot>(bal_, 0) + 1;
  const Ballot shift = ((self - base) % n + n) % n;
  return base + shift;
}

void PaxosProcess::on_timer(TimerId) {
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

void PaxosProcess::on_message(ProcessId from, const Message& m) {
  std::visit([&](const auto& msg) { handle(from, msg); }, m);
}

void PaxosProcess::handle(ProcessId from, const PrepareMsg& m) {
  if (m.b <= bal_) return;
  bal_ = m.b;
  env_.send(from, PromiseMsg{m.b, vbal_, vval_});
}

void PaxosProcess::handle(ProcessId from, const PromiseMsg& m) {
  if (m.b <= 0 || m.b % config_.n != static_cast<Ballot>(env_.self())) return;
  auto& led = led_[m.b];
  if (led.sent_accept) return;
  led.promises.emplace(from, m);
  if (static_cast<int>(led.promises.size()) < config_.classic_quorum()) return;

  // Classic rule: adopt the value voted at the highest ballot, else our own.
  Ballot best = -1;
  Value v;
  for (const auto& [q, p] : led.promises) {
    if (p.vbal > best && !p.vval.is_bottom()) {
      best = p.vbal;
      v = p.vval;
    }
  }
  if (v.is_bottom()) v = my_value_;
  if (v.is_bottom()) return;  // nothing to propose yet; wait for propose()
  led.sent_accept = true;
  env_.broadcast_all(AcceptMsg{m.b, v});
}

void PaxosProcess::handle(ProcessId, const AcceptMsg& m) {
  if (m.b < bal_) return;
  bal_ = m.b;
  vbal_ = m.b;
  vval_ = m.v;
  // Votes are broadcast so every process learns the decision directly.
  env_.broadcast_all(AcceptedMsg{m.b, m.v});
}

void PaxosProcess::handle(ProcessId from, const AcceptedMsg& m) {
  auto& voters = accepted_[{m.b, m.v}];
  voters.insert(from);
  if (static_cast<int>(voters.size()) >= config_.classic_quorum()) decide(m.b, m.v);
}

void PaxosProcess::decide(Ballot b, Value v) {
  if (decide_notified_) return;
  decided_ = v;
  decide_notified_ = true;
  // Ballot 0 is the phase-1-free 2Δ path — the closest Paxos has to a fast
  // path; anything later went through a timer-started ballot.
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

}  // namespace twostep::paxos
