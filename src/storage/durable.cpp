#include "storage/durable.hpp"

#include <algorithm>

#include "codec/codec.hpp"

namespace twostep::codec {

// The disk records' field lists.  They live beside the wire ones (same
// namespace, so the generic codec finds them) but keep the on-disk layouts:
// the core tuple puts `initial` before `decided` (a 1B message has them the
// other way round), and a config change's op is a varint here, a byte on
// the wire.

template <class F>
void fields(F& f, core::TwoStepProcess::AcceptorState& s) {
  f(s.bal, s.vbal, s.val, s.proposer, s.initial, s.decided);
}

template <class F>
void fields(F& f, fastpaxos::FastPaxosProcess::AcceptorState& s) {
  f(s.bal, s.vbal, s.vval, s.my_value, s.decided);
}

}  // namespace twostep::codec

namespace twostep::storage {

namespace {

using consensus::Ballot;
using codec::nonneg;

/// A config change as the WAL and the snapshot blob store it.
struct DiskChange {
  rsm::ConfigChange& c;
  template <class F>
  friend void fields(F& f, DiskChange d) {
    f(codec::varint_enum(d.c.op, rsm::ConfigChange::Op::kRemove), nonneg(d.c.replica), d.c.host,
      d.c.port);
  }
};

// RSM WAL records.  Slot records lead with the (non-negative) slot; batch
// and config records with a negative tag, so replay tells them apart.

struct SlotRecord {
  std::int32_t slot = 0;
  core::TwoStepProcess::AcceptorState state;
  template <class F>
  friend void fields(F& f, SlotRecord& r) {
    f(nonneg(r.slot), r.state);
  }
};

struct BatchRecord {
  rsm::Command cmd = 0;
  std::vector<std::int64_t> payloads;
  template <class F>
  friend void fields(F& f, BatchRecord& r) {
    f(codec::Const<Durable<rsm::RsmProcess>::kBatchRecordTag>{}, r.cmd, r.payloads);
  }
};

struct ConfigRecord {
  rsm::Command cmd = 0;
  rsm::ConfigChange change;
  template <class F>
  friend void fields(F& f, ConfigRecord& r) {
    f(codec::Const<Durable<rsm::RsmProcess>::kConfigRecordTag>{}, r.cmd, DiskChange{r.change});
  }
};

/// An EPaxos instance's durable slice, keyed by its id.
struct InstanceRecord {
  epaxos::InstanceId id;
  epaxos::EPaxosReplica::InstanceState s;
  template <class F>
  friend void fields(F& f, InstanceRecord& r) {
    f(r.id, codec::varint_enum(r.s.status, epaxos::Status::kExecuted), r.s.ballot, r.s.cmd,
      r.s.seq, r.s.deps);
  }
};

/// The snapshot blob: every list a count + entries, slots and members
/// non-negative, and at least the genesis epoch.
struct SnapshotBlob {
  rsm::SnapshotState& s;
  template <class F>
  friend void fields(F& f, SnapshotBlob b) {
    const auto slot_keyed = [](auto& g, auto& e) { g(nonneg(e.first), e.second); };
    f(codec::Const<Snapshotable<rsm::RsmProcess>::kVersion>{}, nonneg(b.s.floor),
      codec::each(b.s.applied, slot_keyed), codec::each(b.s.slots, slot_keyed), b.s.batches,
      codec::each(b.s.epochs,
                  [](auto& g, rsm::ConfigEpoch& e) {
                    g(nonneg(e.version), nonneg(e.boundary), nonneg(e.universe),
                      codec::each(e.members, [](auto& h, auto& m) { h(nonneg(m)); }),
                      DiskChange{e.change});
                  }),
      codec::each(b.s.configs, [](auto& g, auto& e) { g(e.first, DiskChange{e.second}); }));
  }
  friend bool valid(codec::Check, const SnapshotBlob& b) {
    return !b.s.epochs.empty() &&
           std::all_of(b.s.epochs.begin(), b.s.epochs.end(),
                       [](const rsm::ConfigEpoch& e) { return e.universe >= 1; });
  }
};

}  // namespace

// ---- core::TwoStepProcess -------------------------------------------------

bool Durable<core::TwoStepProcess>::capture(core::TwoStepProcess& p, Wal& wal) {
  std::vector<std::uint8_t> record = codec::to_bytes(p.acceptor_state());
  if (record == last_) return false;
  wal.append(record);
  last_ = std::move(record);
  return true;
}

void Durable<core::TwoStepProcess>::replay(core::TwoStepProcess& p,
                                           std::span<const std::uint8_t> record) {
  const auto s = codec::from_bytes<core::TwoStepProcess::AcceptorState>(record);
  if (!s) return;
  p.restore(*s);
  last_.assign(record.begin(), record.end());
}

void Durable<core::TwoStepProcess>::note_recovery(const core::TwoStepProcess& p,
                                                  obs::MetricsRegistry& reg) {
  reg.counter("recover.ballot").add(static_cast<std::uint64_t>(std::max<Ballot>(0, p.ballot())));
  reg.counter("recover.vote_ballot")
      .add(static_cast<std::uint64_t>(std::max<Ballot>(0, p.vote_ballot())));
  if (!p.vote_value().is_bottom()) reg.counter("recover.voted").add();
  if (p.has_decided()) reg.counter("recover.decided").add();
}

// ---- fastpaxos::FastPaxosProcess ------------------------------------------

bool Durable<fastpaxos::FastPaxosProcess>::capture(fastpaxos::FastPaxosProcess& p, Wal& wal) {
  std::vector<std::uint8_t> record = codec::to_bytes(p.acceptor_state());
  if (record == last_) return false;
  wal.append(record);
  last_ = std::move(record);
  return true;
}

void Durable<fastpaxos::FastPaxosProcess>::replay(fastpaxos::FastPaxosProcess& p,
                                                  std::span<const std::uint8_t> record) {
  const auto s = codec::from_bytes<fastpaxos::FastPaxosProcess::AcceptorState>(record);
  if (!s) return;
  p.restore(*s);
  last_.assign(record.begin(), record.end());
}

void Durable<fastpaxos::FastPaxosProcess>::note_recovery(const fastpaxos::FastPaxosProcess& p,
                                                         obs::MetricsRegistry& reg) {
  reg.counter("recover.ballot").add(static_cast<std::uint64_t>(std::max<Ballot>(0, p.ballot())));
  if (p.has_decided()) reg.counter("recover.decided").add();
}

// ---- rsm::RsmProcess ------------------------------------------------------

bool Durable<rsm::RsmProcess>::capture(rsm::RsmProcess& p, Wal& wal) {
  bool appended = false;
  // Batch contents first: a decided slot record naming a batch handle must
  // never hit disk ahead of the payloads it stands for, or a replay could
  // stall on our own proposal.  Contents are immutable, so each handle is
  // drained (and therefore logged) exactly once.
  for (const rsm::Command cmd : p.drain_dirty_batches()) {
    const std::vector<std::int64_t>* payloads = p.batch_contents(cmd);
    if (payloads == nullptr) continue;
    wal.append(codec::to_bytes(BatchRecord{cmd, *payloads}));
    appended = true;
  }
  // Config-change contents, same ordering rule as batches: replaying a
  // decided config slot re-derives the epoch via apply_contiguous, which
  // needs the change on hand.
  for (const rsm::Command cmd : p.drain_dirty_configs()) {
    const rsm::ConfigChange* change = p.config_contents(cmd);
    if (change == nullptr) continue;
    wal.append(codec::to_bytes(ConfigRecord{cmd, *change}));
    appended = true;
  }
  for (const std::int32_t slot : p.drain_dirty_slots()) {
    const core::TwoStepProcess* proc = p.slot_process(slot);
    if (proc == nullptr) continue;
    std::vector<std::uint8_t> record = codec::to_bytes(SlotRecord{slot, proc->acceptor_state()});
    auto& cell = last_[slot];
    if (record == cell) continue;
    wal.append(record);
    cell = std::move(record);
    appended = true;
  }
  return appended;
}

void Durable<rsm::RsmProcess>::replay(rsm::RsmProcess& p, std::span<const std::uint8_t> record) {
  if (auto batch = codec::from_bytes<BatchRecord>(record)) {
    p.restore_batch(batch->cmd, std::move(batch->payloads));
    ++replayed_batches_;
    return;
  }
  if (const auto config = codec::from_bytes<ConfigRecord>(record)) {
    p.restore_config(config->cmd, config->change);
    ++replayed_configs_;
    return;
  }
  const auto slot = codec::from_bytes<SlotRecord>(record);
  if (!slot) return;
  p.restore_slot(slot->slot, slot->state);
  auto& cell = last_[slot->slot];
  const bool fresh = cell.empty();
  cell.assign(record.begin(), record.end());
  if (fresh) ++replayed_slots_;
}

void Durable<rsm::RsmProcess>::compact(std::int32_t floor) {
  last_.erase(last_.begin(), last_.lower_bound(floor));
}

void Durable<rsm::RsmProcess>::note_recovery(const rsm::RsmProcess& p,
                                             obs::MetricsRegistry& reg) {
  reg.counter("recover.slots").add(replayed_slots_);
  reg.counter("recover.batches").add(replayed_batches_);
  reg.counter("recover.configs").add(replayed_configs_);
  reg.counter("recover.decided").add(static_cast<std::uint64_t>(p.decided_slots()));
  reg.counter("recover.applied").add(static_cast<std::uint64_t>(p.applied_prefix()));
  Ballot max_bal = 0;
  for (const auto& [slot, bytes] : last_) {
    const core::TwoStepProcess* proc = p.slot_process(slot);
    if (proc != nullptr) max_bal = std::max(max_bal, proc->ballot());
  }
  reg.counter("recover.max_ballot").add(static_cast<std::uint64_t>(max_bal));
}

// ---- epaxos::EPaxosRsm ----------------------------------------------------

bool Durable<epaxos::EPaxosRsm>::capture(epaxos::EPaxosRsm& p, Wal& wal) {
  bool appended = false;
  for (const epaxos::InstanceId id : p.replica().drain_dirty_instances()) {
    auto state = p.replica().instance_state(id);
    if (!state) continue;
    std::vector<std::uint8_t> record = codec::to_bytes(InstanceRecord{id, std::move(*state)});
    auto& cell = last_[id];
    if (record == cell) continue;
    wal.append(record);
    cell = std::move(record);
    appended = true;
  }
  return appended;
}

void Durable<epaxos::EPaxosRsm>::replay(epaxos::EPaxosRsm& p,
                                        std::span<const std::uint8_t> record) {
  const auto r = codec::from_bytes<InstanceRecord>(record);
  if (!r) return;
  p.replica().restore_instance(r->id, r->s);
  auto& cell = last_[r->id];
  const bool fresh = cell.empty();
  cell.assign(record.begin(), record.end());
  if (fresh) ++replayed_instances_;
}

void Durable<epaxos::EPaxosRsm>::note_recovery(const epaxos::EPaxosRsm& p,
                                               obs::MetricsRegistry& reg) {
  reg.counter("recover.instances").add(replayed_instances_);
  reg.counter("recover.decided")
      .add(static_cast<std::uint64_t>(std::max(0, p.replica().committed_count())));
  reg.counter("recover.applied")
      .add(static_cast<std::uint64_t>(std::max<std::int32_t>(0, p.executed_entries())));
}

// ---- Snapshotable<rsm::RsmProcess> ----------------------------------------

std::vector<std::uint8_t> Snapshotable<rsm::RsmProcess>::capture(const rsm::RsmProcess& p) {
  rsm::SnapshotState s = p.snapshot_state();
  return codec::to_bytes(SnapshotBlob{s});
}

bool Snapshotable<rsm::RsmProcess>::install(rsm::RsmProcess& p,
                                            std::span<const std::uint8_t> blob) {
  rsm::SnapshotState s;
  if (!codec::from_bytes(blob, SnapshotBlob{s})) return false;
  p.install_snapshot_state(s);
  return true;
}

}  // namespace twostep::storage
