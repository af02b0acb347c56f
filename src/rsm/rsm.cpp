#include "rsm/rsm.hpp"

#include <algorithm>
#include <optional>
#include <ranges>
#include <stdexcept>
#include <utility>

namespace twostep::rsm {

using consensus::ProcessId;
using consensus::TimerId;
using consensus::Value;

/// Env adapter presented to one slot's consensus instance: tags outgoing
/// messages with the slot and routes timers through the host.  The
/// instance arms at most one timer at a time (its ballot timer, re-armed
/// only as it fires), so the adapter remembers it and can cancel it.
struct RsmProcess::SlotEnv final : consensus::Env<core::Message> {
  SlotEnv(RsmProcess& host, std::int32_t slot) : host_(host), slot_(slot) {}

  [[nodiscard]] ProcessId self() const override { return host_.env_.self(); }
  [[nodiscard]] int cluster_size() const override {
    // The slot's broadcast set is its governing epoch's quorum universe —
    // never the host env's (possibly larger, post-reconfiguration) size.
    return host_.governing_epoch(slot_).universe;
  }
  [[nodiscard]] sim::Tick now() const override { return host_.env_.now(); }

  void send(ProcessId to, const core::Message& msg) override {
    host_.env_.send(to, SlotMsg{slot_, host_.governing_version(slot_), msg});
  }

  TimerId set_timer(sim::Tick delay) override {
    const TimerId id = host_.env_.set_timer(delay);
    host_.timer_routes_[id.value] = slot_;
    armed_ = id;
    return id;
  }

  void cancel_timer(TimerId id) override {
    host_.env_.cancel_timer(id);
    host_.timer_routes_.erase(id.value);
    if (armed_ && armed_->value == id.value) armed_.reset();
  }

  /// Cancels the armed timer, if any: a decided or dropped slot needs none.
  void disarm() {
    if (armed_) cancel_timer(*armed_);
  }

  RsmProcess& host_;
  std::int32_t slot_;
  std::optional<TimerId> armed_;
};

RsmProcess::RsmProcess(consensus::Env<Message>& env, consensus::SystemConfig config,
                       Options options)
    : env_(env), config_(config), options_(std::move(options)) {
  if (options_.delta <= 0) throw std::invalid_argument("RsmProcess: delta must be > 0");
  if (options_.batch_max < 1) throw std::invalid_argument("RsmProcess: batch_max must be >= 1");
  if (options_.pipeline_window < 0)
    throw std::invalid_argument("RsmProcess: pipeline_window must be >= 0");
  ConfigEpoch genesis;
  genesis.universe = config_.n;
  genesis.members.reserve(static_cast<std::size_t>(config_.n));
  for (ProcessId p = 0; p < config_.n; ++p) genesis.members.push_back(p);
  epochs_.push_back(std::move(genesis));
}

const ConfigEpoch& RsmProcess::governing_epoch(std::int32_t slot) const {
  // Epochs are appended in boundary order; the last with boundary <= slot
  // governs.  The log is short (one entry per membership change), so a
  // reverse scan beats anything cleverer.
  for (auto it = epochs_.rbegin(); it != epochs_.rend(); ++it)
    if (it->boundary <= slot) return *it;
  return epochs_.front();
}

std::int32_t RsmProcess::governing_version(std::int32_t slot) const {
  return governing_epoch(slot).version;
}

bool RsmProcess::has_member(ProcessId p) const {
  const auto& m = epochs_.back().members;
  return std::find(m.begin(), m.end(), p) != m.end();
}

void RsmProcess::set_leader_of(std::function<ProcessId()> leader_of) {
  options_.leader_of = leader_of;
  for (auto& [slot, state] : slots_) state.proc->set_leader_of(leader_of);
}

RsmProcess::~RsmProcess() = default;

RsmProcess::SlotState& RsmProcess::ensure_slot(std::int32_t slot) {
  auto it = slots_.find(slot);
  if (it != slots_.end()) return it->second;

  SlotState state;
  state.env = std::make_unique<SlotEnv>(*this, slot);
  core::Options proto_options;
  proto_options.mode = core::Mode::kObject;
  proto_options.delta = options_.delta;
  proto_options.leader_of = options_.leader_of;
  proto_options.selection_policy = options_.selection_policy;
  proto_options.probe = options_.probe;
  // The instance lives in the slot's governing epoch: its quorum universe
  // may be larger than genesis (f and e never change — adds only widen the
  // universe, so old quorums keep intersecting new ones).
  consensus::SystemConfig slot_config = config_;
  slot_config.n = governing_epoch(slot).universe;
  state.proc =
      std::make_unique<core::TwoStepProcess>(*state.env, slot_config, std::move(proto_options));
  state.proc->on_decide = [this, slot](Value v) { slot_decided(slot, v); };
  state.proc->start();  // arms the slot's ballot timer
  it = slots_.emplace(slot, std::move(state)).first;
  return it->second;
}

std::int32_t RsmProcess::next_free_slot() const {
  std::int32_t s = submit_cursor_;
  while (decisions_.contains(s)) ++s;
  return s;
}

Command RsmProcess::submit(std::int64_t payload) {
  if (payload < 0 || payload > max_payload())
    throw std::invalid_argument("RsmProcess::submit: payload out of range");
  // Commands are (proxy, payload); the proxy tag makes commands from
  // different proxies distinct.  Callers must not submit the same payload
  // twice from the same proxy (the workload generators use sequence ids).
  const Command cmd = (static_cast<std::int64_t>(env_.self()) << 40) | payload;
  ++next_local_id_;
  if (options_.batch_max > 1) {
    open_batch_.entries.emplace_back(cmd, env_.now());
    if (static_cast<int>(open_batch_.entries.size()) >= options_.batch_max) {
      seal_open_batch();
    } else if (!open_batch_.linger) {
      open_batch_.linger = env_.set_timer(std::max<sim::Tick>(options_.batch_linger, 0));
    }
    return cmd;
  }
  PendingCommand pending;
  pending.cmd = cmd;
  pending.submitted_at = env_.now();
  pending_.push_back(pending);
  propose_pending();
  return cmd;
}

void RsmProcess::seal_open_batch() {
  if (open_batch_.linger) {
    env_.cancel_timer(*open_batch_.linger);
    open_batch_.linger.reset();
  }
  if (open_batch_.entries.empty()) return;
  OpenBatch batch = std::exchange(open_batch_, {});
  if (options_.batch_fill)
    options_.batch_fill->record(static_cast<std::int64_t>(batch.entries.size()));

  PendingCommand pending;
  pending.submitted_at = batch.entries.front().second;
  if (batch.entries.size() == 1) {
    // A batch of one proposes the plain command — no handle indirection.
    pending.cmd = batch.entries.front().first;
  } else {
    const Command handle = (static_cast<std::int64_t>(env_.self()) << 40) |
                           (std::int64_t{1} << 39) | next_batch_seq_++;
    std::vector<std::int64_t> payloads;
    payloads.reserve(batch.entries.size());
    for (const auto& [cmd, at] : batch.entries) payloads.push_back(command_payload(cmd));
    batch_contents_.emplace(handle, payloads);
    dirty_batches_.insert(handle);
    own_batch_entries_.emplace(handle, std::move(batch.entries));
    const ProcessId self = env_.self();
    for (int p = 0; p < env_.cluster_size(); ++p)
      if (p != self) env_.send(p, BatchContentMsg{handle, payloads});
    pending.cmd = handle;
  }
  pending_.push_back(pending);
  propose_pending();
}

Command RsmProcess::submit_config(const ConfigChange& change) {
  if (change.replica < 0)
    throw std::invalid_argument("RsmProcess::submit_config: replica must be >= 0");
  // Flush buffered commands first so the change cannot jump ahead of
  // commands accepted before it.
  if (options_.batch_max > 1) seal_open_batch();
  const Command handle = (static_cast<std::int64_t>(env_.self()) << 40) |
                         (std::int64_t{3} << 38) | next_config_seq_++;
  config_contents_.emplace(handle, change);
  dirty_configs_.insert(handle);
  const ProcessId self = env_.self();
  for (int p = 0; p < env_.cluster_size(); ++p)
    if (p != self) env_.send(p, ConfigChangeMsg{handle, change});
  PendingCommand pending;
  pending.cmd = handle;
  pending.submitted_at = env_.now();
  pending_.push_back(pending);
  propose_pending();
  return handle;
}

int RsmProcess::own_slots_in_flight() const {
  int n = 0;
  for (const auto& p : pending_)
    if (p.slot >= 0 && !decisions_.contains(p.slot)) ++n;
  return n;
}

void RsmProcess::propose_pending() {
  const int window = options_.pipeline_window;
  int in_flight = own_slots_in_flight();
  for (auto& p : pending_) {
    if (p.slot >= 0) {
      // Nothing of ours goes past an in-flight config change: slots after
      // it are governed by a version we cannot know until it decides.
      if (command_is_config(p.cmd) && !decisions_.contains(p.slot)) break;
      continue;
    }
    if (command_is_config(p.cmd)) {
      // Stop-the-world single-server change: the handle waits for our own
      // slots to drain, then flies alone.
      if (in_flight > 0) break;
      propose_in_slot(p, next_free_slot());
      break;
    }
    if (window > 0 && in_flight >= window) break;
    propose_in_slot(p, next_free_slot());
    ++in_flight;
  }
}

void RsmProcess::propose_in_slot(PendingCommand& pending, std::int32_t slot) {
  pending.slot = slot;
  submit_cursor_ = slot + 1;
  dirty_slots_.insert(slot);
  ensure_slot(slot).proc->propose(Value{pending.cmd});
}

void RsmProcess::on_message(ProcessId from, const Message& m) {
  if (const auto* s = std::get_if<SlotMsg>(&m)) {
    // A compacted slot is decided, applied and summarized by a snapshot;
    // there is nothing left to learn or answer for it (a peer this far
    // behind needs the snapshot, which the runtime offers separately).
    if (s->slot < floor_) return;
    // Cross-epoch traffic is dropped before it can touch the instance: a
    // quorum for a slot must count only voters governed by the same
    // configuration version.  A replica behind on config catches up via
    // Decide anti-entropy or snapshot transfer, never by mixing epochs.
    if (s->cfg != governing_version(s->slot)) return;
    dirty_slots_.insert(s->slot);
    ensure_slot(s->slot).proc->on_message(from, s->inner);
    return;
  }
  if (const auto* b = std::get_if<BatchContentMsg>(&m)) {
    handle_batch_content(*b);
    return;
  }
  if (const auto* c = std::get_if<ConfigChangeMsg>(&m)) {
    handle_config_content(*c);
    return;
  }
  if (const auto* cf = std::get_if<ConfigFetchMsg>(&m)) {
    const auto it = config_contents_.find(cf->cmd);
    if (it != config_contents_.end()) env_.send(from, ConfigChangeMsg{cf->cmd, it->second});
    return;
  }
  const auto& f = std::get<BatchFetchMsg>(m);
  const auto it = batch_contents_.find(f.cmd);
  if (it != batch_contents_.end()) env_.send(from, BatchContentMsg{f.cmd, it->second});
}

void RsmProcess::handle_batch_content(BatchContentMsg m) {
  if (batch_contents_.contains(m.cmd)) return;
  batch_contents_.emplace(m.cmd, std::move(m.payloads));
  dirty_batches_.insert(m.cmd);
  const auto wit = fetch_waiting_.find(m.cmd);
  if (wit != fetch_waiting_.end()) {
    env_.cancel_timer(wit->second);
    fetch_timer_cmds_.erase(wit->second.value);
    fetch_waiting_.erase(wit);
  }
  apply_contiguous();
}

void RsmProcess::request_batch_contents(Command cmd) {
  if (fetch_waiting_.contains(cmd)) return;  // retry timer already armed
  const ProcessId proxy = command_proxy(cmd);
  if (proxy != env_.self()) env_.send(proxy, BatchFetchMsg{cmd});
  const TimerId id = env_.set_timer(std::max<sim::Tick>(options_.delta * 4, 1));
  fetch_waiting_.emplace(cmd, id);
  fetch_timer_cmds_.emplace(id.value, cmd);
}

void RsmProcess::handle_config_content(const ConfigChangeMsg& m) {
  if (config_contents_.contains(m.cmd)) return;
  config_contents_.emplace(m.cmd, m.change);
  dirty_configs_.insert(m.cmd);
  const auto wit = fetch_waiting_.find(m.cmd);
  if (wit != fetch_waiting_.end()) {
    env_.cancel_timer(wit->second);
    fetch_timer_cmds_.erase(wit->second.value);
    fetch_waiting_.erase(wit);
  }
  apply_contiguous();
}

void RsmProcess::request_config_contents(Command cmd) {
  if (fetch_waiting_.contains(cmd)) return;  // retry timer already armed
  const ProcessId proxy = command_proxy(cmd);
  if (proxy != env_.self()) env_.send(proxy, ConfigFetchMsg{cmd});
  const TimerId id = env_.set_timer(std::max<sim::Tick>(options_.delta * 4, 1));
  fetch_waiting_.emplace(cmd, id);
  fetch_timer_cmds_.emplace(id.value, cmd);
}

void RsmProcess::on_timer(TimerId id) {
  if (open_batch_.linger && open_batch_.linger->value == id.value) {
    open_batch_.linger.reset();
    seal_open_batch();
    return;
  }
  const auto fit = fetch_timer_cmds_.find(id.value);
  if (fit != fetch_timer_cmds_.end()) {
    const Command cmd = fit->second;
    fetch_timer_cmds_.erase(fit);
    fetch_waiting_.erase(cmd);
    const bool resolved = command_is_config(cmd) ? config_contents_.contains(cmd)
                                                 : batch_contents_.contains(cmd);
    if (!resolved) {
      // The proxy did not answer in time — widen the fetch to everyone.
      const ProcessId self = env_.self();
      for (int p = 0; p < env_.cluster_size(); ++p) {
        if (p == self) continue;
        if (command_is_config(cmd)) {
          env_.send(p, ConfigFetchMsg{cmd});
        } else {
          env_.send(p, BatchFetchMsg{cmd});
        }
      }
      const TimerId retry = env_.set_timer(std::max<sim::Tick>(options_.delta * 4, 1));
      fetch_waiting_.emplace(cmd, retry);
      fetch_timer_cmds_.emplace(retry.value, cmd);
    }
    return;
  }
  const auto it = timer_routes_.find(id.value);
  if (it == timer_routes_.end()) return;
  const std::int32_t slot = it->second;
  timer_routes_.erase(it);
  dirty_slots_.insert(slot);
  SlotState& state = ensure_slot(slot);
  state.env->armed_.reset();
  state.proc->on_timer(id);
}

std::vector<std::int32_t> RsmProcess::drain_dirty_slots() {
  std::vector<std::int32_t> slots(dirty_slots_.begin(), dirty_slots_.end());
  dirty_slots_.clear();
  return slots;
}

std::vector<Command> RsmProcess::drain_dirty_batches() {
  std::vector<Command> cmds(dirty_batches_.begin(), dirty_batches_.end());
  dirty_batches_.clear();
  return cmds;
}

std::vector<Command> RsmProcess::drain_dirty_configs() {
  std::vector<Command> cmds(dirty_configs_.begin(), dirty_configs_.end());
  dirty_configs_.clear();
  return cmds;
}

const core::TwoStepProcess* RsmProcess::slot_process(std::int32_t slot) const {
  const auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : it->second.proc.get();
}

bool RsmProcess::ballot_timer_armed(std::int32_t slot) const {
  const auto it = slots_.find(slot);
  return it != slots_.end() && it->second.env->armed_.has_value();
}

const std::vector<std::int64_t>* RsmProcess::batch_contents(Command cmd) const {
  const auto it = batch_contents_.find(cmd);
  return it == batch_contents_.end() ? nullptr : &it->second;
}

const ConfigChange* RsmProcess::config_contents(Command cmd) const {
  const auto it = config_contents_.find(cmd);
  return it == config_contents_.end() ? nullptr : &it->second;
}

void RsmProcess::restore_slot(std::int32_t slot, const core::TwoStepProcess::AcceptorState& s) {
  // A WAL tail can only describe slots at/above the snapshot floor (the
  // snapshot barrier seals everything logged before capture), but guard
  // anyway: resurrecting a summarized slot would undo compaction.
  if (slot < floor_ && !slots_.contains(slot)) return;
  SlotState& state = ensure_slot(slot);
  state.proc->restore(s);
  if (s.decided.is_bottom()) return;
  state.env->disarm();
  if (!decisions_.contains(slot)) {
    decisions_[slot] = s.decided.get();
    if (on_decide_slot) on_decide_slot(slot, s.decided.get());
    apply_contiguous();
  }
}

void RsmProcess::restore_batch(Command cmd, std::vector<std::int64_t> payloads) {
  if (batch_contents_.contains(cmd)) return;
  batch_contents_.emplace(cmd, std::move(payloads));
  apply_contiguous();
}

void RsmProcess::restore_config(Command cmd, const ConfigChange& change) {
  if (config_contents_.contains(cmd)) return;
  config_contents_.emplace(cmd, change);
  apply_contiguous();
}

void RsmProcess::slot_decided(std::int32_t slot, Value v) {
  // A decided instance ignores its ballot timer, so cancel it now rather
  // than let it wake the host 2Δ later for nothing.
  if (const auto it = slots_.find(slot); it != slots_.end()) it->second.env->disarm();
  if (decisions_.contains(slot)) return;
  const Command decided = v.get();
  decisions_[slot] = decided;
  if (on_decide_slot) on_decide_slot(slot, decided);

  // Settle our own command in this slot, if any: a winner commits, a loser
  // re-queues for a later slot.  Each live pending command occupies a
  // distinct slot, so at most one entry matches.
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->slot != slot) continue;
    if (it->cmd == decided) {
      commit_own(*it, slot);
      pending_.erase(it);
    } else {
      PendingCommand retry = *it;
      retry.slot = -1;
      pending_.erase(it);
      pending_.push_back(retry);
    }
    break;
  }
  // Apply BEFORE re-proposing: if this very decision was a config change,
  // a loser's retry lands in a slot the new epoch governs and must be
  // stamped with the post-apply version — stamping it pre-apply makes
  // every receiver drop the frames as cross-epoch and strands the command
  // (an object-mode proposer has no ballot of its own to retry with).
  apply_contiguous();
  propose_pending();  // a decision frees pipeline-window budget
}

void RsmProcess::commit_own(const PendingCommand& pending, std::int32_t slot) {
  if (command_is_batch(pending.cmd)) {
    const auto it = own_batch_entries_.find(pending.cmd);
    if (it != own_batch_entries_.end()) {
      for (const auto& [cmd, submitted_at] : it->second) {
        ++commits_;
        if (on_commit) on_commit(cmd, submitted_at, slot);
      }
      own_batch_entries_.erase(it);
    }
  } else {
    ++commits_;
    if (on_commit) on_commit(pending.cmd, pending.submitted_at, slot);
  }
  if (!first_commit_reported_ && on_decide) {
    first_commit_reported_ = true;
    on_decide(Value{pending.cmd});
  }
}

std::optional<Command> RsmProcess::decision(std::int32_t slot) const {
  const auto it = decisions_.find(slot);
  if (it == decisions_.end()) return std::nullopt;
  return it->second;
}

std::vector<Msg> RsmProcess::decide_messages(std::int32_t from_slot) const {
  std::vector<Msg> out;
  const auto tail = std::ranges::subrange(decisions_.lower_bound(from_slot), decisions_.end());
  out.reserve(static_cast<std::size_t>(std::ranges::distance(tail)));
  // Contents first: a peer must be able to expand every decision it is
  // about to learn without a fetch round-trip.
  for (const auto& [slot, cmd] : tail) {
    if (command_is_config(cmd)) {
      const auto it = config_contents_.find(cmd);
      if (it != config_contents_.end()) out.push_back(ConfigChangeMsg{cmd, it->second});
      continue;
    }
    if (!command_is_batch(cmd)) continue;
    const auto it = batch_contents_.find(cmd);
    if (it != batch_contents_.end()) out.push_back(BatchContentMsg{cmd, it->second});
  }
  for (const auto& [slot, cmd] : tail)
    out.emplace_back(std::in_place_type<SlotMsg>,
                     SlotMsg{slot, governing_version(slot),
                             core::Message{core::DecideMsg{consensus::Value{cmd}}}});
  return out;
}

SnapshotState RsmProcess::snapshot_state() const {
  SnapshotState s;
  s.floor = applied_;
  s.applied = applied_entries_;
  for (const auto& [slot, state] : slots_)
    if (slot >= s.floor) s.slots.emplace_back(slot, state.proc->acceptor_state());
  // A handle's contents are covered by the snapshot exactly when its only
  // decisions sit below the floor (the applied log already expands them).
  // Handles decided at/above the floor — or not decided anywhere we know,
  // so their slot is still open — must travel.
  std::set<Command> covered, live;
  for (const auto& [slot, cmd] : decisions_)
    if (command_is_batch(cmd)) (slot < s.floor ? covered : live).insert(cmd);
  for (const auto& [cmd, payloads] : batch_contents_)
    if (!covered.contains(cmd) || live.contains(cmd)) s.batches.emplace_back(cmd, payloads);
  // Same liveness rule for config contents; changes decided below the
  // floor are already folded into the epoch log.
  std::set<Command> ccovered, clive;
  for (const auto& [slot, cmd] : decisions_)
    if (command_is_config(cmd)) (slot < s.floor ? ccovered : clive).insert(cmd);
  for (const auto& [cmd, change] : config_contents_)
    if (!ccovered.contains(cmd) || clive.contains(cmd)) s.configs.emplace_back(cmd, change);
  s.epochs = epochs_;
  return s;
}

void RsmProcess::install_snapshot_state(const SnapshotState& s) {
  // The configuration first: everything below — restoring slots, adopting
  // decisions, replaying the applied suffix — depends on the governing
  // epoch.  Our epoch log is a prefix of the snapshot's (agreement: both
  // expand the same decided config sequence); adopt the missing suffix and
  // announce each adopted epoch so the host can dial/retire links.
  for (const auto& [cmd, change] : s.configs)
    if (!config_contents_.contains(cmd)) config_contents_.emplace(cmd, change);
  if (s.epochs.size() > epochs_.size()) {
    const std::size_t had = epochs_.size();
    for (std::size_t i = had; i < s.epochs.size(); ++i) epochs_.push_back(s.epochs[i]);
    rebuild_slots_from(epochs_[had].boundary);
    if (on_config) {
      for (std::size_t i = had; i < epochs_.size(); ++i)
        on_config(epochs_[i].boundary - 1, epochs_[i].change, epochs_[i]);
    }
  }

  // Batch contents next: neither the applied suffix nor a restored
  // decision may stall on a handle the snapshot itself can expand.
  for (const auto& [cmd, payloads] : s.batches)
    if (!batch_contents_.contains(cmd)) batch_contents_.emplace(cmd, payloads);

  // The applied log: ours is a prefix of the snapshot's (agreement — both
  // expand the same decided slot sequence), so apply exactly the suffix.
  for (std::size_t i = applied_entries_.size(); i < s.applied.size(); ++i) {
    applied_entries_.push_back(s.applied[i]);
    if (on_apply) on_apply(s.applied[i].first, s.applied[i].second);
  }
  if (applied_ < s.floor) applied_ = s.floor;

  // Live slots: restore the ones we have no instance for; for slots we
  // already participate in, adopt the snapshot's decision only — never its
  // promises (overwriting a live acceptor could roll back a commitment
  // this replica made to a quorum).
  for (const auto& [slot, st] : s.slots) {
    if (slot < s.floor) continue;
    if (!slots_.contains(slot)) {
      if (slot >= floor_) restore_slot(slot, st);
      continue;
    }
    if (!st.decided.is_bottom() && !decisions_.contains(slot)) slot_decided(slot, st.decided);
  }

  // Our commands stranded in summarized slots: those slots decided without
  // us, and the decision is not individually recoverable — re-queue, the
  // at-least-once contract client retries already rely on.
  bool requeued = false;
  for (auto& p : pending_) {
    if (p.slot >= 0 && p.slot < s.floor && !decisions_.contains(p.slot)) {
      p.slot = -1;
      requeued = true;
    }
  }

  compact_to(s.floor);
  if (requeued) propose_pending();
  apply_contiguous();
}

void RsmProcess::compact_to(std::int32_t floor) {
  floor = std::min(floor, applied_);  // never drop an undecided/unapplied slot
  if (floor <= floor_) return;        // the floor only rises
  floor_ = floor;
  if (submit_cursor_ < floor_) submit_cursor_ = floor_;

  // Timers of dropped slots would fire into nothing; cancel them.
  const auto dropped_end = slots_.lower_bound(floor_);
  for (auto it = slots_.begin(); it != dropped_end; ++it) it->second.env->disarm();
  slots_.erase(slots_.begin(), dropped_end);
  dirty_slots_.erase(dirty_slots_.begin(), dirty_slots_.lower_bound(floor_));

  // Batch and config contents fall with their decision unless a surviving
  // decision still references the handle (at-least-once re-decides are
  // legal).  Folded-in config changes live on in the epoch log.
  std::set<Command> retained;
  for (auto it = decisions_.lower_bound(floor_); it != decisions_.end(); ++it)
    if (command_is_batch(it->second) || command_is_config(it->second))
      retained.insert(it->second);
  for (auto it = decisions_.begin(); it != decisions_.end() && it->first < floor_;) {
    const Command cmd = it->second;
    if (retained.contains(cmd)) {
      it = decisions_.erase(it);
      continue;
    }
    if (command_is_batch(cmd)) {
      batch_contents_.erase(cmd);
      own_batch_entries_.erase(cmd);
      dirty_batches_.erase(cmd);
    } else if (command_is_config(cmd)) {
      config_contents_.erase(cmd);
      dirty_configs_.erase(cmd);
    }
    it = decisions_.erase(it);
  }
}

void RsmProcess::rebuild_slots_from(std::int32_t boundary) {
  // Instances at/above the boundary were built under a smaller quorum
  // universe; recreate them under the new governing epoch, carrying their
  // acceptor state.  Promises and votes survive the rebuild, so a quorum
  // formed before the change still intersects every quorum after it (the
  // universe only grows and f/e are fixed: n0-2f >= 1 and n0-2e >= 1
  // common voters are guaranteed, and each votes identically).
  std::vector<std::pair<std::int32_t, core::TwoStepProcess::AcceptorState>> carry;
  for (auto it = slots_.lower_bound(boundary); it != slots_.end(); ++it)
    carry.emplace_back(it->first, it->second.proc->acceptor_state());
  for (const auto& [slot, state] : carry) {
    slots_.at(slot).env->disarm();
    slots_.erase(slot);
    SlotState& rebuilt = ensure_slot(slot);
    rebuilt.proc->restore(state);
    if (!state.decided.is_bottom()) rebuilt.env->disarm();
    dirty_slots_.insert(slot);
  }
}

void RsmProcess::apply_config_change(std::int32_t slot, const ConfigChange& change) {
  {
    ConfigEpoch next = epochs_.back();
    next.version += 1;
    next.boundary = slot + 1;
    next.change = change;
    const auto mit = std::find(next.members.begin(), next.members.end(), change.replica);
    if (change.op == ConfigChange::Op::kAdd) {
      if (mit == next.members.end()) next.members.push_back(change.replica);
      next.universe = std::max(next.universe, change.replica + 1);
    } else {
      if (mit != next.members.end()) next.members.erase(mit);
      // The universe never shrinks: a removed replica is treated as
      // permanently crashed, which the resilience budget already covers.
    }
    std::sort(next.members.begin(), next.members.end());
    epochs_.push_back(std::move(next));
  }
  const ConfigEpoch& epoch = epochs_.back();
  if (epoch.universe != epochs_[epochs_.size() - 2].universe)
    rebuild_slots_from(epoch.boundary);
  if (on_config) on_config(slot, change, epoch);
}

void RsmProcess::apply_contiguous() {
  while (true) {
    const auto it = decisions_.find(applied_);
    if (it == decisions_.end()) return;
    const Command cmd = it->second;
    if (command_is_config(cmd)) {
      const auto cit = config_contents_.find(cmd);
      if (cit == config_contents_.end()) {
        // Decided config handle with unknown contents: stall and fetch,
        // exactly like a batch.
        request_config_contents(cmd);
        return;
      }
      // Config entries do not enter the applied (executor) log and fire
      // on_config instead of on_apply: the state machine the audit checks
      // carries client commands only.
      const ConfigChange change = cit->second;
      const std::int32_t slot = applied_;
      ++applied_;
      apply_config_change(slot, change);
      continue;
    }
    if (command_is_batch(cmd)) {
      const auto bit = batch_contents_.find(cmd);
      if (bit == batch_contents_.end()) {
        // Decided handle with unknown contents: stall the prefix and fetch.
        request_batch_contents(cmd);
        return;
      }
      const std::int64_t proxy_tag = static_cast<std::int64_t>(command_proxy(cmd)) << 40;
      for (const std::int64_t payload : bit->second) {
        applied_entries_.emplace_back(applied_, proxy_tag | payload);
        if (on_apply) on_apply(applied_, proxy_tag | payload);
      }
    } else {
      applied_entries_.emplace_back(applied_, cmd);
      if (on_apply) on_apply(applied_, cmd);
    }
    ++applied_;
  }
}

}  // namespace twostep::rsm
