// Per-protocol durability traits over the WAL.
//
// storage::Durable<P> is the bridge between a protocol instance and its
// write-ahead log: capture() appends a record when (and only when) the
// acceptor-critical state changed since the last capture, and replay()
// applies one recovered record back onto a fresh instance (also seeding the
// change detector, so unchanged state is never re-logged after recovery).
// The records are codec-encoded (zigzag varints, Value presence bytes) —
// the same primitives as the wire format, so a WAL record is as compact as
// the message that revealed the state it protects.  Each record kind (and
// the snapshot blob) declares its fields once, in durable.cpp, and the
// generic codec derives its encoder and its total decoder; adding a record
// means one fields() declaration plus one golden vector in
// tests/test_golden.cpp.
//
// What is durable per protocol, and why it suffices for safety:
//   - TwoStepProcess (task and object mode): the full Figure-1 acceptor
//     tuple (bal, vbal, val, proposer, initial_val, decided).  A 1B reply
//     and a fast vote expose exactly these fields; Lemma 7 / Lemma C.2
//     intersect quorums over them.
//   - FastPaxosProcess: (bal, vbal, vval, my_value, decided) — the classic
//     Paxos promise/vote pair plus the own proposal (a restarted proposer
//     must not re-propose a different value under the same identity).
//   - RsmProcess: one record per touched slot, carrying the slot's inner
//     object-mode acceptor tuple.  Decisions ride in the same record (the
//     `decided` field); the applied prefix is recomputed from the decisions
//     on replay, so it needs no record of its own.
// Leader-side vote tallies (who promised/voted to *us*) are deliberately
// volatile: losing them delays recovery by one ballot but cannot break
// agreement, and logging them would double the write volume.
//
// storage::Snapshotable<P> is the whole-state companion: where Durable
// logs *transitions*, Snapshotable checkpoints the *sum*.  Its blob is
// what storage::Engine frames into the snapshot file and what snapshot
// state transfer ships to a lagging replica; the two traits together are
// the complete durability contract of a protocol (see below).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/two_step.hpp"
#include "epaxos/host.hpp"
#include "fastpaxos/fast_paxos.hpp"
#include "obs/metrics.hpp"
#include "rsm/rsm.hpp"
#include "storage/wal.hpp"

namespace twostep::storage {

/// Specialized for every protocol the node runtime can persist.
template <typename P>
struct Durable;

/// True when Durable<P> exists; Runtime uses it to reject StorageOptions
/// for protocols without durability support at construction time.
template <typename P>
inline constexpr bool kHasDurable = false;
template <>
inline constexpr bool kHasDurable<core::TwoStepProcess> = true;
template <>
inline constexpr bool kHasDurable<fastpaxos::FastPaxosProcess> = true;
template <>
inline constexpr bool kHasDurable<rsm::RsmProcess> = true;
template <>
inline constexpr bool kHasDurable<epaxos::EPaxosRsm> = true;

/// Stand-in for protocols without durability support, so Runtime<P> still
/// compiles for them (storage is rejected at runtime before it is reached).
struct NullDurable {
  template <typename P>
  bool capture(P&, Wal&) {
    return false;
  }
  template <typename P>
  void replay(P&, std::span<const std::uint8_t>) {}
  template <typename P>
  void note_recovery(const P&, obs::MetricsRegistry&) {}
};

/// Whole-state checkpointing, specialized per snapshot-capable protocol.
///
/// The contract — what makes Engine's WAL compaction and snapshot state
/// transfer safe:
///   - capture() serializes the instance's COMPLETE state: installed into
///     a fresh instance, the blob must reproduce exactly the state a full
///     WAL replay (all records appended so far) would.  This is why the
///     snapshot barrier can be "rotate, then cover every sealed segment"
///     with no per-record reasoning.
///   - install() must also be safe on a RUNNING instance that is behind
///     (live state transfer): it may only add knowledge — adopt decisions,
///     fill gaps, extend the applied log — never regress promises the
///     local instance already made.
///   - Blobs are versioned: the leading varint is the format version, and
///     install() returns false on a version (or any framing) it does not
///     understand rather than guessing.  The caller then falls back to WAL
///     replay or re-requests the transfer.
template <typename P>
struct Snapshotable;

/// True when Snapshotable<P> exists; Runtime uses it to reject snapshot
/// triggers (StorageOptions::snapshot_every) for protocols that can only
/// log transitions.
template <typename P>
inline constexpr bool kHasSnapshot = false;
template <>
inline constexpr bool kHasSnapshot<rsm::RsmProcess> = true;

/// Stand-in mirroring NullDurable, so Runtime<P> compiles for protocols
/// without snapshot support.
struct NullSnapshotable {
  template <typename P>
  static std::vector<std::uint8_t> capture(const P&) {
    return {};
  }
  template <typename P>
  static bool install(P&, std::span<const std::uint8_t>) {
    return false;
  }
};

template <>
struct Durable<core::TwoStepProcess> {
  /// Appends a record iff the acceptor state changed since the last
  /// capture/replay; returns whether anything was appended (i.e. whether
  /// the caller owes a sync before releasing the buffered messages).
  bool capture(core::TwoStepProcess& p, Wal& wal);
  /// Applies one recovered record; malformed records are ignored (they can
  /// only come from a foreign or future file — CRC already screened rot).
  void replay(core::TwoStepProcess& p, std::span<const std::uint8_t> record);
  /// Publishes what was recovered ("recover.*" counters) so a rejoin from
  /// the WAL — rather than from scratch — is observable in metrics.
  void note_recovery(const core::TwoStepProcess& p, obs::MetricsRegistry& reg);

 private:
  std::vector<std::uint8_t> last_;
};

template <>
struct Durable<fastpaxos::FastPaxosProcess> {
  bool capture(fastpaxos::FastPaxosProcess& p, Wal& wal);
  void replay(fastpaxos::FastPaxosProcess& p, std::span<const std::uint8_t> record);
  void note_recovery(const fastpaxos::FastPaxosProcess& p, obs::MetricsRegistry& reg);

 private:
  std::vector<std::uint8_t> last_;
};

template <>
struct Durable<rsm::RsmProcess> {
  /// Record discriminator for batch-content records.  Slot records start
  /// with a non-negative slot varint; pre-batching replays skip any record
  /// whose leading varint is negative, so the format stays forward- and
  /// backward-compatible.
  static constexpr std::int64_t kBatchRecordTag = -1;
  /// Record discriminator for config-change content records (same negative
  /// tag space as batches).
  static constexpr std::int64_t kConfigRecordTag = -2;

  /// One record per newly-known batch and config change (contents are
  /// immutable, logged once), then one record per dirty slot whose encoded
  /// state changed.  Sidecar contents precede slot records so a replayed
  /// decision can always be expanded.
  bool capture(rsm::RsmProcess& p, Wal& wal);
  void replay(rsm::RsmProcess& p, std::span<const std::uint8_t> record);
  void note_recovery(const rsm::RsmProcess& p, obs::MetricsRegistry& reg);

  /// Forgets the change-detector cells of slots below `floor`; called
  /// alongside RsmProcess::compact_to so the detector does not grow
  /// without bound once snapshots retire old slots.
  void compact(std::int32_t floor);

 private:
  std::map<std::int32_t, std::vector<std::uint8_t>> last_;  ///< slot -> encoded record
  std::uint64_t replayed_slots_ = 0;
  std::uint64_t replayed_batches_ = 0;
  std::uint64_t replayed_configs_ = 0;
};

template <>
struct Durable<epaxos::EPaxosRsm> {
  /// One record per dirty instance whose durable slice changed: the
  /// EPaxosReplica::InstanceState tuple keyed by (replica, index).  Leader
  /// tallies stay volatile (same rationale as the other protocols) and
  /// execution is re-derived from the committed graph on replay, so an
  /// instance's record changes at most a handful of times over its life
  /// (pre-accept, accept, commit).
  bool capture(epaxos::EPaxosRsm& p, Wal& wal);
  void replay(epaxos::EPaxosRsm& p, std::span<const std::uint8_t> record);
  void note_recovery(const epaxos::EPaxosRsm& p, obs::MetricsRegistry& reg);

 private:
  std::map<epaxos::InstanceId, std::vector<std::uint8_t>> last_;  ///< id -> encoded record
  std::uint64_t replayed_instances_ = 0;
};

template <>
struct Snapshotable<rsm::RsmProcess> {
  /// Blob format version (the leading varint).  The v2 layout is the
  /// SnapshotBlob field list in durable.cpp: version, floor, then the
  /// applied entries, live slots, batches, config epochs and pending
  /// config changes of rsm::SnapshotState, each list a count + entries.
  static constexpr std::int64_t kVersion = 2;

  /// Encodes RsmProcess::snapshot_state().  Stateless: capture never
  /// mutates the instance (unlike Durable::capture, which drains dirty
  /// sets).
  static std::vector<std::uint8_t> capture(const rsm::RsmProcess& p);

  /// Decodes and installs a blob via install_snapshot_state.  Returns
  /// false (leaving `p` untouched) on unknown version or any framing
  /// error.
  static bool install(rsm::RsmProcess& p, std::span<const std::uint8_t> blob);
};

}  // namespace twostep::storage
