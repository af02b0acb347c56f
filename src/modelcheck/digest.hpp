// Canonical 128-bit digests of DirectDrive states, for the explorer's
// visited-state table.
//
// Two drives that are the same state up to the names the drive gives things
// get the same digest.  It covers every process's complete state (through
// its `digest(H&) const` hook), the crashed flag and armed-timer count of
// each process, the injected fault counts, and the pending pool as a
// multiset of (from, to, message).  Left out are Pending::seq, TimerIds and
// the step counter, which differ between schedules that commute, and the
// safety monitor, whose verdict follows from the processes' decisions.
//
// A process type P provides two hooks, both feeding std::uint64_t words to
// a callable `h`:
//   template <typename H> void digest(H& h) const;              // its state
//   template <typename H> static void digest(H& h, const Message& m);
// The state hook must cover everything that can influence the process's
// future behaviour; a field it leaves out lets the table merge states that
// later diverge.  The explorer and the fuzzer also need the copy hook of
// DirectDrive::restore_from,
//   void copy_state_from(const P& other);
// which must copy the same fields as the state hook, plus fields that only
// feed metrics: a field the copy leaves out carries over from an earlier
// schedule into a restored drive.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "modelcheck/direct_drive.hpp"
#include "util/rng.hpp"

namespace twostep::modelcheck {

/// A 128-bit digest of a state or of one message.
struct Digest {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  friend auto operator<=>(const Digest&, const Digest&) = default;
};

/// Folds 64-bit words into a Digest through two differently mixed lanes.
class Hasher {
 public:
  void operator()(std::uint64_t word) noexcept {
    a_ = util::splitmix64(a_, word);
    b_ = util::splitmix64(b_ ^ word, kLaneB);
  }
  [[nodiscard]] Digest digest() const noexcept { return {a_, b_}; }

 private:
  static constexpr std::uint64_t kLaneB = 0x6a09e667f3bcc909ULL;
  std::uint64_t a_ = 0;
  std::uint64_t b_ = kLaneB;
};

/// One pending message by content: (from, to, message), never its seq.
template <typename P>
[[nodiscard]] Digest message_digest(const typename DirectDrive<P>::Pending& m) {
  Hasher h;
  h(static_cast<std::uint64_t>(m.from));
  h(static_cast<std::uint64_t>(m.to));
  P::digest(h, m.msg);
  return h.digest();
}

/// The drive's state digest.  On return `pending` holds message_digest of
/// each pool entry, in pool order.
template <typename P>
[[nodiscard]] Digest state_digest(const DirectDrive<P>& drive, std::vector<Digest>& pending) {
  Hasher h;
  for (consensus::ProcessId p = 0; p < drive.config().n; ++p) {
    drive.process(p).digest(h);
    h(drive.crashed(p));
    h(static_cast<std::uint64_t>(drive.armed_timers(p)));
  }
  h(static_cast<std::uint64_t>(drive.injected_drops()));
  h(static_cast<std::uint64_t>(drive.injected_duplicates()));
  h(static_cast<std::uint64_t>(drive.injected_partitions()));
  // The pool as a multiset: its entries' digests, sorted in a second half
  // of `pending` that is trimmed again afterwards.
  const std::size_t size = drive.pool().size();
  pending.clear();
  pending.reserve(2 * size);
  for (const auto& m : drive.pool()) pending.push_back(message_digest<P>(m));
  for (std::size_t i = 0; i < size; ++i) pending.push_back(pending[i]);
  std::sort(pending.begin() + static_cast<std::ptrdiff_t>(size), pending.end());
  h(size);
  for (std::size_t i = size; i < pending.size(); ++i) {
    h(pending[i].a);
    h(pending[i].b);
  }
  pending.resize(size);
  return h.digest();
}

template <typename P>
[[nodiscard]] Digest state_digest(const DirectDrive<P>& drive) {
  std::vector<Digest> pending;
  return state_digest(drive, pending);
}

}  // namespace twostep::modelcheck
