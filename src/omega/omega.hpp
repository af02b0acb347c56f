// Ω leader election (§C.1 of the paper).
//
// The slow path of the protocol nominates a single process to run new
// ballots.  Termination requires that eventually all correct processes agree
// on the same correct leader — the Ω failure detector.  Two implementations
// are provided:
//
//  * OmegaOracle — a simulation-level oracle that returns the lowest-id
//    non-crashed process.  Trivially eventually accurate; used by tests that
//    need deterministic, message-free leader election.
//
//  * Detector — the timeout-based implementation under partial synchrony
//    (Chandra-Toueg style), run by both the live runtime and the simulated
//    TwoStepWithOmega.  It does no I/O and reads no clock; the host sends
//    the heartbeats.  Each peer's timeout widens on every false suspicion,
//    so after GST the timeouts outgrow Δ + period and the suspicions stop.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "consensus/types.hpp"
#include "util/backoff.hpp"

namespace twostep::omega {

/// Oracle Ω: leader = lowest-id process the environment reports alive.
/// `alive` must eventually stabilize (crash-stop guarantees it does).
class OmegaOracle {
 public:
  explicit OmegaOracle(std::function<bool(consensus::ProcessId)> alive, int n)
      : alive_(std::move(alive)), n_(n) {
    if (!alive_ || n_ < 1) throw std::invalid_argument("OmegaOracle: bad arguments");
  }

  [[nodiscard]] consensus::ProcessId leader() const {
    for (consensus::ProcessId p = 0; p < n_; ++p)
      if (alive_(p)) return p;
    return consensus::kNoProcess;
  }

 private:
  std::function<bool(consensus::ProcessId)> alive_;
  int n_;
};

/// TwoStepWithOmega's heartbeat message (live: codec::Heartbeat).
struct Heartbeat {
  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

/// Timeout-based Ω over an explicit member list, in the host's time unit
/// (µs live, ticks simulated).  heard, check and handover return nonzero
/// when the election may have changed.  A peer's record (last heard = now,
/// a first timeout draw) is made the first time any method touches it.
class Detector {
 public:
  /// Peer p's timeouts come from util::Backoff{timeout_min, timeout_max,
  /// splitmix64(seed, (self << 16) ^ p)}, which clamps zeroed bounds to 1.
  Detector(consensus::ProcessId self, std::int64_t timeout_min, std::int64_t timeout_max,
           std::uint64_t seed);

  /// Any message from `p` counts as life.  True on a false suspicion,
  /// which widens p's next timeout draw.
  bool heard(consensus::ProcessId p, std::int64_t now);

  /// The periodic scan, the only place a timeout suspects: returns how
  /// many members it newly suspected for being unheard past their timeout.
  int check(std::span<const consensus::ProcessId> members, std::int64_t now) {
    return suspect_unheard(members, std::numeric_limits<consensus::ProcessId>::max(), now, -1);
  }

  /// A Handover from `from` claims every member below it is gone: suspect
  /// those unheard for longer than `grace`.  Returns how many.
  int handover(consensus::ProcessId from, std::span<const consensus::ProcessId> members,
               std::int64_t now, std::int64_t grace) {
    return suspect_unheard(members, from, now, grace);
  }

  /// Drops a removed member's record.
  void forget(consensus::ProcessId p);

  /// The lowest member that is self or not suspected (a member without a
  /// record is not); self when every member is suspected.
  [[nodiscard]] consensus::ProcessId leader(
      std::span<const consensus::ProcessId> members) const;

  [[nodiscard]] bool suspects(consensus::ProcessId p) const;

 private:
  struct Peer {
    std::int64_t last_heard;
    std::int64_t timeout;
    util::Backoff backoff;
    bool suspected = false;
  };

  /// Suspects the members below `below` unheard for longer than `grace`
  /// (< 0: each one's own timeout); returns how many.
  int suspect_unheard(std::span<const consensus::ProcessId> members, consensus::ProcessId below,
                      std::int64_t now, std::int64_t grace);

  consensus::ProcessId self_;
  std::int64_t timeout_min_;
  std::int64_t timeout_max_;
  std::uint64_t seed_;
  std::unordered_map<consensus::ProcessId, Peer> peers_;
};

}  // namespace twostep::omega
