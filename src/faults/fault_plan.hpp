// Deterministic fault injection for the simulated network.
//
// A FaultPlan is the supported adversary API for chaos experiments: message
// drop / duplication / reordering (by probability or by link predicate),
// link-level and cut-based partitions with scheduled heal times, and a
// crash-restart schedule.  It plugs into net::Network as a first-class
// stage of the send path: every message the network would deliver is first
// submitted to FaultPlan::on_send, which returns what actually happens to
// it.  With no plan attached the send path costs one pointer test.
//
// Determinism: every probabilistic decision is drawn from the plan's own
// explicitly seeded Rng, and the plan is consulted in network send order —
// which the discrete-event simulator makes a pure function of the run's
// configuration and seed.  Parallel sweeps give each task its own plan
// seeded from the task seed (util::splitmix64(base, index)), so chaos
// experiments are byte-identical for any thread count, exactly like the
// fault-free sweeps of the exec subsystem.
//
// The paper's protocols assume reliable links (Definition 2); a FaultPlan
// deliberately breaks that assumption so the recovery machinery (Figure 1's
// value-selection rule, Lemma 7 / Lemma C.2) can be exercised adversarially.
// net::ReliableChannel restores the reliable-link abstraction on top of the
// lossy link via retransmission, which is what lets every protocol run
// unmodified under chaos.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "consensus/types.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace twostep::faults {

/// Why the fault plan dropped a message.
enum class DropReason : std::uint8_t {
  kNone = 0,    ///< not dropped
  kInjected,    ///< dropped by a FaultPlan drop rule
  kPartition,   ///< severed by an active FaultPlan partition
};

/// Stable trace-event label ("drop.none", "drop.injected", "drop.partition").
[[nodiscard]] const char* drop_event_label(DropReason reason) noexcept;

class FaultPlan {
 public:
  using ProcessId = consensus::ProcessId;

  /// Link predicate over (now, from, to).  Message payloads are opaque to
  /// the (non-template) plan; payload-sensitive rules use a DelayRule.
  using LinkPredicate = std::function<bool(sim::Tick, ProcessId, ProcessId)>;

  /// Delivery-time override: may return an absolute delivery time for a
  /// message, or nullopt to defer to the latency model.  The payload is
  /// passed as a type-erased pointer (null for control signals such as the
  /// reliable channel's acks); typed_delay_rule() builds a safely typed
  /// rule from a lambda over the concrete message type.
  using DelayRule = std::function<std::optional<sim::Tick>(sim::Tick, ProcessId, ProcessId,
                                                           const void*)>;

  explicit FaultPlan(std::uint64_t seed = 1) : rng_(seed) {}

  // ---- rule construction (named setters, chainable) ----

  /// Drops each message independently with probability `rate`.
  FaultPlan& drop(double rate);

  /// Duplicates each message with probability `rate`; a duplicated message
  /// is scheduled 1 + extra_copies times, each copy drawing its own
  /// delivery time from the latency model.
  FaultPlan& duplicate(double rate, int extra_copies = 1);

  /// With probability `rate`, delays a message by a uniform extra
  /// [1, max_extra] ticks on top of the latency model — the standard way to
  /// force reordering past later messages on the same link.
  FaultPlan& reorder(double rate, sim::Tick max_extra);

  /// Drops every message matching the predicate (checked before the
  /// probabilistic rules; no randomness involved).
  FaultPlan& drop_if(LinkPredicate pred);

  /// Duplicates every message matching the predicate.
  FaultPlan& duplicate_if(LinkPredicate pred, int extra_copies = 1);

  /// Severs the (symmetric) link a <-> b during [since, heal_at); heal_at
  /// < 0 means the link never heals.
  FaultPlan& partition_link(ProcessId a, ProcessId b, sim::Tick since, sim::Tick heal_at);

  /// Cut-based partition: messages crossing the cut between `island` and
  /// its complement are dropped during [since, heal_at); heal_at < 0 means
  /// the partition never heals.
  FaultPlan& partition_cut(std::vector<ProcessId> island, sim::Tick since, sim::Tick heal_at);

  /// Schedules a crash of p at absolute time `when` (crash-stop until a
  /// later restart_at).  Applied by the harness that owns the network (the
  /// Cluster), which routes it through its monitors.
  FaultPlan& crash_at(sim::Tick when, ProcessId p);

  /// Schedules a restart of p at absolute time `when`.  The simulated
  /// process resumes with its pre-crash protocol state (crash-recovery with
  /// durable state); messages sent to p while it was down are lost unless a
  /// ReliableChannel retransmits them.
  FaultPlan& restart_at(sim::Tick when, ProcessId p);

  /// Installs the delivery-time override (at most one; replaces any
  /// previous rule).  typed_delay_rule() adapts a typed
  /// (now, from, to, msg) -> optional<Tick> callable into this shape.
  FaultPlan& delay_rule(DelayRule rule);

  /// Replaces the plan's random stream (e.g. with a per-task sweep seed).
  void reseed(std::uint64_t seed) { rng_ = util::Rng{seed}; }

  // ---- the decision interface the network consumes ----

  /// What happens to one message.  copies >= 1 when delivered; every copy
  /// beyond the first is an injected duplicate.
  struct Decision {
    DropReason drop = DropReason::kNone;
    int copies = 1;
    sim::Tick extra_delay = 0;                ///< reordering jitter
    std::optional<sim::Tick> forced_time;     ///< absolute override (delay rule)

    [[nodiscard]] bool dropped() const noexcept { return drop != DropReason::kNone; }
  };

  /// Decides the fate of a message sent now from -> to.  `msg` is the
  /// type-erased payload for the delay rule (null for control signals).
  /// Deterministic in the call sequence for a fixed seed.
  Decision on_send(sim::Tick now, ProcessId from, ProcessId to, const void* msg);

  /// True iff an active partition severs a -> b at `now`.
  [[nodiscard]] bool partitioned(sim::Tick now, ProcessId a, ProcessId b) const;

  /// One entry of the crash-restart schedule.
  struct CrashEvent {
    sim::Tick when = 0;
    ProcessId p = consensus::kNoProcess;
    bool restart = false;
  };
  [[nodiscard]] const std::vector<CrashEvent>& crash_schedule() const noexcept {
    return crash_schedule_;
  }

  // ---- lifetime statistics (deterministic, per plan instance) ----
  [[nodiscard]] std::uint64_t injected_drops() const noexcept { return injected_drops_; }
  [[nodiscard]] std::uint64_t injected_duplicates() const noexcept { return injected_dups_; }
  [[nodiscard]] std::uint64_t injected_reorders() const noexcept { return injected_reorders_; }

 private:
  struct Partition {
    std::vector<ProcessId> island;  ///< empty for link partitions
    ProcessId a = consensus::kNoProcess;
    ProcessId b = consensus::kNoProcess;
    sim::Tick since = 0;
    sim::Tick heal_at = -1;  ///< < 0: never heals

    [[nodiscard]] bool active(sim::Tick now) const noexcept {
      return now >= since && (heal_at < 0 || now < heal_at);
    }
    [[nodiscard]] bool severs(ProcessId from, ProcessId to) const;
  };

  double drop_rate_ = 0;
  double dup_rate_ = 0;
  int dup_extra_copies_ = 1;
  double reorder_rate_ = 0;
  sim::Tick reorder_max_extra_ = 0;
  std::vector<LinkPredicate> drop_preds_;
  std::vector<std::pair<LinkPredicate, int>> dup_preds_;
  std::vector<Partition> partitions_;
  std::vector<CrashEvent> crash_schedule_;
  DelayRule delay_rule_;
  util::Rng rng_;
  std::uint64_t injected_drops_ = 0;
  std::uint64_t injected_dups_ = 0;
  std::uint64_t injected_reorders_ = 0;
};

/// Builds a DelayRule from a lambda over the concrete message type:
///   plan.delay_rule(faults::typed_delay_rule<Message>(
///       [](sim::Tick now, ProcessId from, ProcessId to, const Message& m)
///           -> std::optional<sim::Tick> { ... }));
/// Control signals (null payloads) defer to the latency model.
template <typename Msg, typename F>
[[nodiscard]] FaultPlan::DelayRule typed_delay_rule(F fn) {
  return [fn = std::move(fn)](sim::Tick now, consensus::ProcessId from,
                              consensus::ProcessId to,
                              const void* msg) -> std::optional<sim::Tick> {
    if (msg == nullptr) return std::nullopt;
    return fn(now, from, to, *static_cast<const Msg*>(msg));
  };
}

}  // namespace twostep::faults
