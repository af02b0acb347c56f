#include "core/with_omega.hpp"

namespace twostep::core {

namespace {

/// Cap of the suspicion timeout, as a multiple of suspect_timeout.  Each
/// false suspicion of a peer doubles its timeout up to this cap, so after
/// GST the timeouts outgrow Δ + period and Ω becomes eventually accurate
/// without the detector knowing Δ.
constexpr sim::Tick kSuspectTimeoutCap = 16;

omega::Detector make_detector(consensus::ProcessId self, const WithOmegaOptions& options,
                              sim::Tick period) {
  const sim::Tick timeout =
      options.suspect_timeout > 0 ? options.suspect_timeout : 2 * options.delta + period;
  return {self, timeout, kSuspectTimeoutCap * timeout, static_cast<std::uint64_t>(self)};
}

}  // namespace

TwoStepWithOmega::TwoStepWithOmega(consensus::Env<Message>& env,
                                   consensus::SystemConfig config, WithOmegaOptions options)
    : env_(env),
      inner_env_(*this),
      period_(options.heartbeat_period > 0 ? options.heartbeat_period : options.delta),
      detector_(make_detector(env.self(), options, period_)) {
  for (consensus::ProcessId p = 0; p < config.n; ++p) members_.push_back(p);
  Options inner_options;
  inner_options.mode = options.mode;
  inner_options.delta = options.delta;
  inner_options.selection_policy = options.selection_policy;
  inner_options.leader_of = [this] { return current_leader(); };
  inner_ = std::make_unique<TwoStepProcess>(inner_env_, config, std::move(inner_options));
  // Forward decisions: on_decide may be (re)assigned by harnesses after
  // construction, so indirect through the member.
  inner_->on_decide = [this](consensus::Value v) {
    if (on_decide) on_decide(v);
  };
}

void TwoStepWithOmega::start() {
  heartbeat_tick();
  inner_->start();
}

void TwoStepWithOmega::heartbeat_tick() {
  for (const consensus::ProcessId p : members_)
    if (p != env_.self()) env_.send(p, OmegaMessage{omega::Heartbeat{}});
  detector_.check(members_, env_.now());
  heartbeat_timer_ = env_.set_timer(period_);
}

void TwoStepWithOmega::on_message(consensus::ProcessId from, const Message& m) {
  if (const auto* msg = std::get_if<core::Message>(&m))
    inner_->on_message(from, *msg);
  else
    detector_.heard(from, env_.now());  // a Heartbeat
}

void TwoStepWithOmega::on_timer(consensus::TimerId id) {
  if (id == heartbeat_timer_)
    heartbeat_tick();
  else
    inner_->on_timer(id);
}

}  // namespace twostep::core
