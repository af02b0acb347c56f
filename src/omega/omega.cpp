#include "omega/omega.hpp"

#include "util/rng.hpp"

namespace twostep::omega {

using consensus::ProcessId;

Detector::Detector(ProcessId self, std::int64_t timeout_min, std::int64_t timeout_max,
                   std::uint64_t seed)
    : self_(self), timeout_min_(timeout_min), timeout_max_(timeout_max), seed_(seed) {
  if (self < 0) throw std::invalid_argument("omega::Detector: negative self id");
}

bool Detector::heard(ProcessId p, std::int64_t now) {
  if (p == self_) return false;
  auto it = peers_.find(p);
  if (it == peers_.end()) {
    util::Backoff backoff{timeout_min_, timeout_max_,
                          util::splitmix64(seed_, static_cast<std::uint64_t>((self_ << 16) ^ p))};
    const std::int64_t timeout = backoff.next();
    peers_.emplace(p, Peer{now, timeout, backoff});
    return false;
  }
  Peer& h = it->second;
  h.last_heard = now;
  if (!h.suspected) return false;
  h.suspected = false;
  h.timeout = h.backoff.next();
  return true;
}

int Detector::suspect_unheard(std::span<const ProcessId> members, ProcessId below,
                              std::int64_t now, std::int64_t grace) {
  int suspected = 0;
  for (const ProcessId m : members) {
    if (m >= below || m == self_) continue;
    if (!peers_.contains(m)) heard(m, now);  // first touch: start its record
    Peer& h = peers_.at(m);
    if (!h.suspected && now - h.last_heard > (grace < 0 ? h.timeout : grace)) {
      h.suspected = true;
      ++suspected;
    }
  }
  return suspected;
}

void Detector::forget(ProcessId p) { peers_.erase(p); }

bool Detector::suspects(ProcessId p) const {
  const auto it = peers_.find(p);
  return p != self_ && it != peers_.end() && it->second.suspected;
}

ProcessId Detector::leader(std::span<const ProcessId> members) const {
  ProcessId elected = consensus::kNoProcess;
  for (const ProcessId m : members)
    if (!suspects(m) && (elected < 0 || m < elected)) elected = m;
  return elected < 0 ? self_ : elected;
}

}  // namespace twostep::omega
