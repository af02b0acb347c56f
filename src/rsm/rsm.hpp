// State-machine replication over the paper's consensus object.
//
// This is the deployment model the paper's pragmatic definition targets
// (Schneider's tutorial, as cited): a client submits a command to one of
// the replicas — its *proxy* — which proposes the command and answers once
// the command is decided.  The two-step condition matters exactly here: the
// proxy should decide in two message delays; decision latency at the other
// replicas is irrelevant to the client.
//
// The log is a sequence of independent single-shot instances of the
// consensus *object* protocol (Figure 1 with red lines), one per slot.  A
// proxy proposes its command in the lowest slot it has not used; if the
// slot decides someone else's command, the proxy re-submits in a later
// slot.  Commands are applied in slot order once decisions are contiguous.
//
// Saturation path (N3): a slot may carry a *batch* of commands.  The value
// decided by the slot's consensus instance is still one 64-bit command —
// consensus::Value never widens — but a command with the batch bit set is
// an opaque handle whose payload list travels beside the protocol as a
// BatchContentMsg.  Replicas stall contiguous application on a handle whose
// contents they have not yet seen and fetch them (BatchFetchMsg); contents
// are immutable once created, so any replica that has them can answer.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "consensus/env.hpp"
#include "consensus/types.hpp"
#include "core/two_step.hpp"
#include "obs/histogram.hpp"

namespace twostep::rsm {

/// A command is an opaque 64-bit payload; the RSM packs (proxy, local id)
/// into it so every submitted command is globally unique.
using Command = std::int64_t;

/// Wire message: a slot-tagged message of the underlying consensus object.
/// `cfg` is the sender's governing configuration version for the slot
/// (see ConfigEpoch): a receiver whose governing version for the slot
/// differs drops the message, so quorums never mix configuration epochs.
struct SlotMsg {
  std::int32_t slot = 0;
  std::int32_t cfg = 0;
  core::Message inner;
  friend bool operator==(const SlotMsg&, const SlotMsg&) = default;
};

/// Contents of one batch handle: the client payloads it stands for, in
/// submission order.  Broadcast by the proxy when the batch is sealed and
/// re-sent on demand (fetch) and on link re-establishment (anti-entropy).
struct BatchContentMsg {
  Command cmd = 0;  ///< the batch handle (bit 39 set)
  std::vector<std::int64_t> payloads;
  friend bool operator==(const BatchContentMsg&, const BatchContentMsg&) = default;
};

/// Request for the contents of a batch handle the sender cannot resolve.
struct BatchFetchMsg {
  Command cmd = 0;
  friend bool operator==(const BatchFetchMsg&, const BatchFetchMsg&) = default;
};

/// One membership change: add or remove a single replica.  `host`/`port`
/// are the joiner's listen endpoint (meaningful for kAdd only) so existing
/// members learn where to dial.
struct ConfigChange {
  enum class Op : std::uint8_t { kAdd = 0, kRemove = 1 };
  Op op = Op::kAdd;
  consensus::ProcessId replica = 0;
  std::string host;
  std::uint16_t port = 0;
  friend bool operator==(const ConfigChange&, const ConfigChange&) = default;
};

/// Contents of one config handle — the reconfiguration analogue of
/// BatchContentMsg.  The value decided in the slot is still one 64-bit
/// command (a handle with bits 39+38 set); the change itself travels
/// beside the protocol and is fetched on demand, exactly like a batch.
struct ConfigChangeMsg {
  Command cmd = 0;  ///< the config handle (bits 39 and 38 set)
  ConfigChange change;
  friend bool operator==(const ConfigChangeMsg&, const ConfigChangeMsg&) = default;
};

/// Request for the contents of a config handle the sender cannot resolve.
struct ConfigFetchMsg {
  Command cmd = 0;
  friend bool operator==(const ConfigFetchMsg&, const ConfigFetchMsg&) = default;
};

/// RSM wire message: slot-tagged consensus traffic plus the batch and
/// config sidecars.
using Msg = std::variant<SlotMsg, BatchContentMsg, BatchFetchMsg, ConfigChangeMsg, ConfigFetchMsg>;

/// One epoch of the configuration log.  `version` governs every slot in
/// [boundary, next epoch's boundary): a config change decided in slot k
/// takes effect at slot k+1 (stop-the-world, single-server change).
/// `universe` is the quorum universe the per-slot SystemConfig uses — it
/// only ever grows (a removed replica is treated as permanently crashed,
/// which the protocol already tolerates, rather than shrinking quorums).
struct ConfigEpoch {
  std::int32_t version = 0;
  std::int32_t boundary = 0;  ///< first slot this epoch governs
  std::int32_t universe = 0;  ///< SystemConfig n for governed slots
  std::vector<consensus::ProcessId> members;  ///< live membership
  ConfigChange change;  ///< the change that created this epoch (empty at genesis)
  friend bool operator==(const ConfigEpoch&, const ConfigEpoch&) = default;
};

struct Options {
  sim::Tick delta = 1;
  std::function<consensus::ProcessId()> leader_of;
  core::SelectionPolicy selection_policy = core::SelectionPolicy::kPaper;
  obs::Probe probe;  ///< forwarded into every slot's protocol instance

  /// Max client commands packed into one slot.  1 (default) disables
  /// batching entirely: submit() proposes a plain command, byte-for-byte
  /// the pre-batching behavior.  With batching on, payloads must fit in
  /// 39 bits (bit 39 marks batch handles).
  int batch_max = 1;
  /// How long an open batch waits for more commands before sealing, in
  /// ticks.  0 seals on the next timer pass — commands arriving in the
  /// same loop iteration still coalesce.
  sim::Tick batch_linger = 0;
  /// Max own undecided slots in flight.  0 = unbounded (the pre-window
  /// behavior: every submission proposes immediately).
  int pipeline_window = 0;
  /// Optional histogram of sealed batch sizes (commands per slot).
  obs::LogHistogram* batch_fill = nullptr;
};

/// Complete checkpoint of one replica's RSM state, captured by
/// snapshot_state() and reinstated by install_snapshot_state().  This is
/// what a storage::Engine snapshot payload carries and what travels over
/// the wire during snapshot state transfer; storage::Snapshotable owns the
/// byte encoding, this struct is the in-memory contract.
struct SnapshotState {
  /// Compaction floor: every slot < floor is decided and applied, and
  /// `applied` below is their full expansion.  Equals the capturing
  /// replica's applied prefix.
  std::int32_t floor = 0;
  /// The applied log from genesis: one (slot, command) pair per on_apply
  /// firing — a batched slot contributes one entry per inner command.
  /// The log IS the state machine state; installing it replays exactly
  /// the applications a replica that lived through history performed.
  std::vector<std::pair<std::int32_t, Command>> applied;
  /// Acceptor state of every live slot at/above the floor (in-flight
  /// instances plus decided-but-not-yet-contiguous ones).
  std::vector<std::pair<std::int32_t, core::TwoStepProcess::AcceptorState>> slots;
  /// Batch contents still needed at/above the floor, plus any handle not
  /// yet decided (its slot is unknown, so it must survive the transfer).
  std::vector<std::pair<Command, std::vector<std::int64_t>>> batches;
  /// The full configuration log, genesis epoch included.  A joiner adopts
  /// the whole log (it starts with only genesis), which is how it learns
  /// the membership it is entering.
  std::vector<ConfigEpoch> epochs;
  /// Config-handle contents not yet folded into an epoch (undecided or
  /// decided-above-floor handles), by the same liveness rule as batches.
  std::vector<std::pair<Command, ConfigChange>> configs;
};

/// Static message-type label: delegates to the inner protocol message.
[[nodiscard]] constexpr const char* message_name(const SlotMsg& m) noexcept {
  return core::message_name(m.inner);
}
[[nodiscard]] inline const char* message_name(const Msg& m) noexcept {
  if (const auto* s = std::get_if<SlotMsg>(&m)) return core::message_name(s->inner);
  if (std::holds_alternative<BatchContentMsg>(m)) return "BatchContent";
  if (std::holds_alternative<BatchFetchMsg>(m)) return "BatchFetch";
  return std::holds_alternative<ConfigChangeMsg>(m) ? "ConfigChange" : "ConfigFetch";
}

/// One replica: proxy + per-slot consensus participants + executor.
class RsmProcess {
 public:
  using Message = Msg;

  RsmProcess(consensus::Env<Message>& env, consensus::SystemConfig config, Options options);
  ~RsmProcess();  // out-of-line: SlotEnv is incomplete here

  void start() {}

  /// Proxy API: submit a client command.  Returns the globally unique
  /// command actually enqueued (payload packed with the proxy id).  With
  /// batching enabled the returned command is the caller-visible identity
  /// (on_commit / on_apply fire with it); the batch handle that actually
  /// occupies the slot is internal.
  Command submit(std::int64_t payload);

  /// Submits a membership change through the log.  Returns the config
  /// handle that will occupy a slot (on_commit fires with it when the
  /// change is chosen).  Stop-the-world: the handle is proposed only once
  /// our own in-flight slots have drained, and nothing else of ours is
  /// proposed past an undecided config handle.
  Command submit_config(const ConfigChange& change);

  /// Cluster-harness adapter: submits the value's payload as a command.
  void propose(consensus::Value v) { submit(v.get()); }

  void on_message(consensus::ProcessId from, const Message& m);
  void on_timer(consensus::TimerId id);

  /// Fired when a slot decision is learned, in arbitrary slot order.
  std::function<void(std::int32_t slot, Command cmd)> on_decide_slot;
  /// Fired for every command in log order (contiguous prefix application).
  /// A batched slot fires once per inner command, in submission order.
  std::function<void(std::int32_t slot, Command cmd)> on_apply;
  /// Fired when one of OUR commands commits: (command, submit time, slot).
  /// A batched slot fires once per inner command with its own submit time.
  std::function<void(Command cmd, sim::Tick submitted_at, std::int32_t slot)> on_commit;
  /// Cluster-harness adapter: fired on our first committed command.
  std::function<void(consensus::Value)> on_decide;
  /// Fired when a config change is applied in log order (the slot it was
  /// decided in, the change, and the epoch it created).  Config entries do
  /// NOT fire on_apply — the executor log carries client commands only.
  /// Also fired during snapshot install for each epoch adopted wholesale.
  std::function<void(std::int32_t slot, const ConfigChange& change, const ConfigEpoch& epoch)>
      on_config;

  // --- crash recovery (consumed by storage::Durable<RsmProcess>) ---

  /// Slots whose inner acceptor state may have changed since the last
  /// drain.  Cleared by the call; the set is maintained by every entry
  /// point that can touch a slot (message, timer, submit).
  [[nodiscard]] std::vector<std::int32_t> drain_dirty_slots();

  /// Batch handles whose contents became known since the last drain
  /// (sealed locally or received from a peer).  Contents are immutable,
  /// so each handle is reported exactly once.
  [[nodiscard]] std::vector<Command> drain_dirty_batches();

  /// Config handles whose contents became known since the last drain —
  /// same contract as drain_dirty_batches().
  [[nodiscard]] std::vector<Command> drain_dirty_configs();

  /// The consensus instance of one slot, or null if the slot was never
  /// touched locally.
  [[nodiscard]] const core::TwoStepProcess* slot_process(std::int32_t slot) const;

  /// True while the slot's consensus instance has a ballot timer armed.
  /// A decided slot never has one.
  [[nodiscard]] bool ballot_timer_armed(std::int32_t slot) const;

  /// Contents of a batch handle, or null if unknown here.
  [[nodiscard]] const std::vector<std::int64_t>* batch_contents(Command cmd) const;

  /// Contents of a config handle, or null if unknown here.
  [[nodiscard]] const ConfigChange* config_contents(Command cmd) const;

  /// Reinstates one slot from its durable record: restores the inner
  /// acceptor state, re-registers a restored decision and re-applies the
  /// contiguous prefix (on_apply fires in log order during replay).
  void restore_slot(std::int32_t slot, const core::TwoStepProcess::AcceptorState& s);

  /// Reinstates one batch's contents from its durable record.
  void restore_batch(Command cmd, std::vector<std::int64_t> payloads);

  /// Reinstates one config handle's contents from its durable record.
  /// Epochs themselves are not restored directly: replaying slot records
  /// re-derives them through apply_contiguous (config records precede slot
  /// records in the WAL, so the contents are present when needed).
  void restore_config(Command cmd, const ConfigChange& change);

  // --- snapshots & compaction (consumed by storage::Snapshotable) ---

  /// Captures a complete checkpoint of this replica: the applied log plus
  /// every live slot and still-needed batch.  Installing the result into a
  /// fresh replica reproduces this replica's externally visible state.
  [[nodiscard]] SnapshotState snapshot_state() const;

  /// Reinstates a checkpoint.  Safe on a *running* replica that is behind
  /// (snapshot state transfer), not just a fresh one: locally absent slots
  /// are restored wholesale, but for slots this replica already
  /// participates in only the snapshot's *decisions* are adopted — never
  /// its promises, which could roll back commitments made to a quorum.
  /// The local applied log must be a prefix of the snapshot's (guaranteed
  /// by agreement: both expand the same decided slot sequence); on_apply
  /// fires for exactly the missing suffix.  Our own commands stranded in
  /// summarized slots are re-queued (at-least-once, like client retries).
  /// Finishes with compact_to(s.floor).
  void install_snapshot_state(const SnapshotState& s);

  /// Drops everything below `floor` (clamped to the applied prefix): slot
  /// instances and their timers, their decisions, and batch contents no
  /// surviving decision references.  Called after the snapshot covering
  /// that state is durable; the floor only ever rises.
  void compact_to(std::int32_t floor);

  /// Lowest slot whose instance may still exist here (0 = never compacted).
  [[nodiscard]] std::int32_t compact_floor() const noexcept { return floor_; }

  /// The applied log retained for snapshot capture: every (slot, command)
  /// pair on_apply has fired with (or would have), from genesis.
  [[nodiscard]] const std::vector<std::pair<std::int32_t, Command>>& applied_entries()
      const noexcept {
    return applied_entries_;
  }

  /// The Decide retransmission set: one slot-wrapped DecideMsg per decided
  /// slot, in slot order, preceded by the contents of every decided batch
  /// handle we know (a peer that learns a decision it cannot expand would
  /// otherwise stall until fetch kicks in).  Resent by the live runtime
  /// to a peer behind us — the transport's disconnected queue is bounded,
  /// so a replica that was down through many decisions needs this
  /// anti-entropy pass to fill its log gaps (its own ballot timers cannot:
  /// only the Ω leader starts ballots, and a decided leader has nothing
  /// left to run).  `from_slot` is the peer's applied prefix (from its
  /// Catchup frame), so only the decisions at or above it travel.
  [[nodiscard]] std::vector<Message> decide_messages(std::int32_t from_slot = 0) const;

  // --- configuration ---

  /// The configuration log (genesis first).  Never empty.
  [[nodiscard]] const std::vector<ConfigEpoch>& config_epochs() const noexcept { return epochs_; }

  /// The latest epoch's version / membership.
  [[nodiscard]] std::int32_t config_version() const noexcept { return epochs_.back().version; }
  [[nodiscard]] const std::vector<consensus::ProcessId>& members() const noexcept {
    return epochs_.back().members;
  }
  [[nodiscard]] bool has_member(consensus::ProcessId p) const;

  /// The config version governing `slot` (the last epoch whose boundary
  /// is <= slot).  Stamped on every outgoing SlotMsg and checked on every
  /// incoming one.
  [[nodiscard]] std::int32_t governing_version(std::int32_t slot) const;

  /// Replaces the Ω leader hint for this replica and every live slot
  /// instance, present and future.  The live runtime installs its failure
  /// detector's output here; new ballots started by slot timers then race
  /// only from the current leader.
  void set_leader_of(std::function<consensus::ProcessId()> leader_of);

  // --- introspection ---
  [[nodiscard]] std::int32_t applied_prefix() const noexcept { return applied_; }
  [[nodiscard]] int decided_slots() const noexcept { return static_cast<int>(decisions_.size()); }
  [[nodiscard]] std::optional<Command> decision(std::int32_t slot) const;
  [[nodiscard]] int pending_own_commands() const noexcept { return static_cast<int>(pending_.size()); }
  [[nodiscard]] std::int64_t commits() const noexcept { return commits_; }
  /// Commands buffered in the open (unsealed) batch.
  [[nodiscard]] int open_batch_size() const noexcept {
    return static_cast<int>(open_batch_.entries.size());
  }

  /// Largest client payload submit() accepts: 2^39-1.  Bit 39 flags
  /// batch/config handles, so it is reserved unconditionally (config
  /// handles can occupy a slot even with batching off).
  [[nodiscard]] std::int64_t max_payload() const noexcept {
    return (std::int64_t{1} << 39) - 1;
  }

  /// Unpacks the proxy id from a command.
  static consensus::ProcessId command_proxy(Command cmd) {
    return static_cast<consensus::ProcessId>(static_cast<std::uint64_t>(cmd) >> 40);
  }
  /// Unpacks the client payload (lower 40 bits).
  static std::int64_t command_payload(Command cmd) {
    return cmd & ((std::int64_t{1} << 40) - 1);
  }
  /// True if the command is a batch handle (bit 39 set, bit 38 clear)
  /// rather than a client command.
  static bool command_is_batch(Command cmd) { return ((cmd >> 38) & 3) == 2; }
  /// True if the command is a config handle (bits 39 and 38 both set).
  static bool command_is_config(Command cmd) { return ((cmd >> 38) & 3) == 3; }

 private:
  struct SlotEnv;

  struct SlotState {
    std::unique_ptr<SlotEnv> env;
    std::unique_ptr<core::TwoStepProcess> proc;
  };

  struct PendingCommand {
    Command cmd = 0;
    sim::Tick submitted_at = 0;
    std::int32_t slot = -1;  ///< slot currently proposed in, -1 = queued
  };

  /// Commands accumulating toward the next sealed batch.
  struct OpenBatch {
    std::vector<std::pair<Command, sim::Tick>> entries;  ///< (caller cmd, submit time)
    std::optional<consensus::TimerId> linger;
  };

  SlotState& ensure_slot(std::int32_t slot);
  void propose_in_slot(PendingCommand& pending, std::int32_t slot);
  void propose_pending();
  [[nodiscard]] int own_slots_in_flight() const;
  void seal_open_batch();
  void handle_batch_content(BatchContentMsg m);
  void request_batch_contents(Command cmd);
  void handle_config_content(const ConfigChangeMsg& m);
  void request_config_contents(Command cmd);
  void apply_config_change(std::int32_t slot, const ConfigChange& change);
  void rebuild_slots_from(std::int32_t boundary);
  [[nodiscard]] const ConfigEpoch& governing_epoch(std::int32_t slot) const;
  void slot_decided(std::int32_t slot, consensus::Value v);
  void commit_own(const PendingCommand& pending, std::int32_t slot);
  void apply_contiguous();
  [[nodiscard]] std::int32_t next_free_slot() const;

  consensus::Env<Message>& env_;
  consensus::SystemConfig config_;
  Options options_;

  std::map<std::int32_t, SlotState> slots_;
  std::set<std::int32_t> dirty_slots_;
  std::map<std::int32_t, Command> decisions_;
  std::unordered_map<std::uint64_t, std::int32_t> timer_routes_;  ///< ballot timer id -> slot
  std::deque<PendingCommand> pending_;
  OpenBatch open_batch_;
  std::map<Command, std::vector<std::int64_t>> batch_contents_;
  std::set<Command> dirty_batches_;
  std::map<Command, ConfigChange> config_contents_;
  std::set<Command> dirty_configs_;
  /// The configuration log; epochs_[0] is genesis ({version 0, boundary 0,
  /// the constructor-time SystemConfig}).  Appended only by
  /// apply_config_change and snapshot install, in version order.
  std::vector<ConfigEpoch> epochs_;
  /// Our sealed batches' inner (caller cmd, submit time) entries, kept
  /// until the batch commits so on_commit can fan out per command.
  std::map<Command, std::vector<std::pair<Command, sim::Tick>>> own_batch_entries_;
  std::map<Command, consensus::TimerId> fetch_waiting_;   ///< handle -> retry timer
  std::map<std::uint64_t, Command> fetch_timer_cmds_;     ///< timer id -> handle
  std::int32_t applied_ = 0;        ///< number of applied (contiguous) slots
  std::int32_t floor_ = 0;          ///< compaction floor (slots below are gone)
  /// The applied log (see applied_entries()); appended by apply_contiguous
  /// and by snapshot install, captured verbatim into snapshots.
  std::vector<std::pair<std::int32_t, Command>> applied_entries_;
  std::int32_t submit_cursor_ = 0;  ///< lowest slot we might still use
  std::int64_t next_local_id_ = 1;
  std::int64_t next_batch_seq_ = 1;
  std::int64_t next_config_seq_ = 1;
  std::int64_t commits_ = 0;
  std::uint64_t next_timer_key_ = 1;
  bool first_commit_reported_ = false;
};

}  // namespace twostep::rsm
