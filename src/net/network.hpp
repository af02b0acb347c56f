// Simulated message-passing network.
//
// Network<Msg> connects n endpoints through a LatencyModel on top of the
// discrete-event simulator.  It implements crash-stop failures (a crashed
// process neither sends nor receives) with optional restarts, send/deliver/
// drop events for an obs::RunTracer, and a first-class fault-injection
// stage: a faults::FaultPlan attached at construction sees every message
// before it is scheduled and may drop it, duplicate it, delay it past later
// messages, or sever it with a partition.  Links are reliable
// exactly when no plan is attached (the paper's Definition 2 regime); under
// a lossy plan, net::ReliableChannel restores the reliable-link abstraction
// via retransmission (see net/reliable.hpp).
//
// Configuration is passed at construction via NetworkConfig; the only
// supported post-construction mutation is reattach_probe (dynamic probe
// swaps mid-run).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "consensus/types.hpp"
#include "faults/fault_plan.hpp"
#include "net/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace twostep::net {

/// Construction-time network configuration.
struct NetworkConfig {
  /// Fault-injection stage; null keeps links reliable and costs one pointer
  /// test per send.  Shared so the caller can keep a handle for statistics
  /// and scheduled partitions.
  std::shared_ptr<faults::FaultPlan> faults;

  /// Structured observability: send/deliver/drop events to the probe's
  /// tracer, per-message-type counters (net.sent.<Type> etc.) to its
  /// registry.  Default (null) probe keeps observability off.  A message
  /// still in flight when the run ends has a send event and no deliver or
  /// drop; an injected or partition drop is labelled with its reason
  /// (faults::drop_event_label), a crash drop with the message type.
  obs::Probe probe{};
};

template <typename Msg>
class Network {
 public:
  using Handler = std::function<void(consensus::ProcessId from, const Msg&)>;

  /// Observer for tagged sends (the reliable channel's data path): invoked
  /// at delivery time instead of the per-process handler, with the opaque
  /// tag the sender attached.
  using DeliveryTap =
      std::function<void(consensus::ProcessId from, consensus::ProcessId to, const Msg&,
                         std::uint64_t tag)>;

  Network(sim::Simulator& simulator, std::unique_ptr<LatencyModel> model, int n,
          std::uint64_t seed = 1, NetworkConfig config = {})
      : simulator_(simulator),
        model_(std::move(model)),
        handlers_(static_cast<std::size_t>(n)),
        crashed_(static_cast<std::size_t>(n), false),
        rng_(seed),
        faults_(std::move(config.faults)),
        probe_(config.probe) {
    if (!model_) throw std::invalid_argument("Network: null latency model");
    if (n < 1) throw std::invalid_argument("Network: need at least one process");
  }

  [[nodiscard]] int size() const noexcept { return static_cast<int>(handlers_.size()); }
  [[nodiscard]] sim::Tick delta() const { return model_->delta(); }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] const obs::Probe& probe() const noexcept { return probe_; }
  [[nodiscard]] faults::FaultPlan* fault_plan() const noexcept { return faults_.get(); }

  /// Installs the receive handler for process p.  Must be set before any
  /// message destined to p is delivered.
  void set_handler(consensus::ProcessId p, Handler h) { handlers_.at(index(p)) = std::move(h); }

  /// Installs the tagged-delivery observer (see send_tagged).
  void set_delivery_tap(DeliveryTap tap) { tap_ = std::move(tap); }

  /// Swaps the probe mid-run (a default-constructed probe detaches).
  void reattach_probe(obs::Probe probe) {
    probe_ = probe;
    type_counters_.clear();
  }

  /// Sends msg from -> to.  Sending from or to a crashed process silently
  /// drops the message (crash-stop semantics).  Self-sends go through the
  /// latency model like any other message: Definition 2 delivers ALL
  /// messages sent in round k at the start of round k+1, and a protocol that
  /// wants instant access to its own state reads it locally instead of
  /// mailing itself (e.g. the fast path's |P ∪ {p_i}| counts self without a
  /// message).
  void send(consensus::ProcessId from, consensus::ProcessId to, const Msg& msg) {
    dispatch(from, to, msg, 0, /*tagged=*/false);
  }

  /// Like send(), but delivered copies invoke the delivery tap with `tag`
  /// instead of the per-process handler.  The reliable channel uses this to
  /// correlate deliveries with its sequence numbers; tags are opaque here.
  void send_tagged(consensus::ProcessId from, consensus::ProcessId to, const Msg& msg,
                   std::uint64_t tag) {
    dispatch(from, to, msg, tag, /*tagged=*/true);
  }

  /// Fault-adjusted delivery time for an internal control signal (the
  /// reliable channel's acks): applies the plan's partitions, drop rules
  /// and reordering plus the latency model, without counting or tracing a
  /// message.  nullopt when the signal is lost (fault or crashed endpoint).
  [[nodiscard]] std::optional<sim::Tick> control_delivery_time(consensus::ProcessId from,
                                                               consensus::ProcessId to) {
    if (crashed_.at(index(from)) || crashed_.at(index(to))) return std::nullopt;
    sim::Tick extra = 0;
    if (faults_) {
      const auto d = faults_->on_send(simulator_.now(), from, to, nullptr);
      if (d.dropped()) return std::nullopt;
      if (d.forced_time) return *d.forced_time;
      extra = d.extra_delay;
    }
    return model_->delivery_time(simulator_.now(), from, to, rng_) + extra;
  }

  /// Crashes p immediately: all undelivered messages to p are lost and p
  /// sends nothing from now on.
  void crash(consensus::ProcessId p) { crashed_.at(index(p)) = true; }

  /// Schedules a crash of p at absolute time `when`.
  void crash_at(sim::Tick when, consensus::ProcessId p) {
    simulator_.schedule_at(when, [this, p] { crash(p); });
  }

  /// Restarts a crashed p: it receives and sends again from now on.  The
  /// simulated process resumes with its retained state (crash-recovery with
  /// durable state); messages addressed to p while it was down stay lost
  /// unless a ReliableChannel retransmits them.
  void restart(consensus::ProcessId p) { crashed_.at(index(p)) = false; }

  [[nodiscard]] bool crashed(consensus::ProcessId p) const { return crashed_.at(index(p)); }

  [[nodiscard]] int crashed_count() const {
    int k = 0;
    for (const bool c : crashed_) k += c ? 1 : 0;
    return k;
  }

  [[nodiscard]] std::size_t messages_sent() const noexcept { return sent_; }
  [[nodiscard]] std::size_t messages_delivered() const noexcept { return delivered_; }

 private:
  [[nodiscard]] std::size_t index(consensus::ProcessId p) const {
    if (p < 0 || p >= size()) throw std::out_of_range("Network: bad process id");
    return static_cast<std::size_t>(p);
  }

  void dispatch(consensus::ProcessId from, consensus::ProcessId to, const Msg& msg,
                std::uint64_t tag, bool tagged) {
    (void)index(to);  // validate eagerly, not at delivery time
    ++sent_;
    const char* label = probe_.enabled() ? obs::message_label(msg) : nullptr;
    std::uint64_t seq = 0;
    if (label) {
      seq = ++obs_seq_;
      if (probe_.metrics) counters_for(label).sent->add();
    }
    if (crashed_.at(index(from))) {
      if (label) {
        if (probe_.metrics) counters_for(label).dropped->add();
        probe_.trace([&] {
          return obs::TraceEvent{obs::EventKind::kMessageDrop, simulator_.now(), from, to, -1,
                                 {}, label, static_cast<std::int64_t>(seq)};
        });
      }
      return;
    }
    if (label) {
      probe_.trace([&] {
        return obs::TraceEvent{obs::EventKind::kMessageSend, simulator_.now(), from, to, -1,
                               {}, label, static_cast<std::int64_t>(seq)};
      });
    }
    // Fault-injection stage: one pointer test when no plan is attached.
    faults::FaultPlan::Decision fate;
    if (faults_) fate = faults_->on_send(simulator_.now(), from, to, &msg);
    if (fate.dropped()) {
      if (label) {
        if (probe_.metrics) {
          counters_for(label).dropped->add();
          probe_.metrics->counter("faults.drops").add();
        }
        probe_.trace([&] {
          return obs::TraceEvent{obs::EventKind::kMessageDrop, simulator_.now(), from, to, -1,
                                 {}, faults::drop_event_label(fate.drop),
                                 static_cast<std::int64_t>(seq)};
        });
      }
      return;
    }
    for (int copy = 0; copy < fate.copies; ++copy) {
      if (copy > 0 && label) {
        if (probe_.metrics) probe_.metrics->counter("faults.duplicates").add();
        probe_.trace([&] {
          return obs::TraceEvent{obs::EventKind::kMessageDuplicate, simulator_.now(), from, to,
                                 -1, {}, label, static_cast<std::int64_t>(seq)};
        });
      }
      const sim::Tick when =
          fate.forced_time
              ? *fate.forced_time
              : model_->delivery_time(simulator_.now(), from, to, rng_) + fate.extra_delay;
      simulator_.schedule_at(when, [this, from, to, msg, seq, tag, tagged] {
        deliver(from, to, msg, seq, tag, tagged);
      });
    }
  }

  void deliver(consensus::ProcessId from, consensus::ProcessId to, const Msg& msg,
               std::uint64_t seq, std::uint64_t tag, bool tagged) {
    // Re-derive the label: the probe may have been (de)attached while the
    // message was in flight.
    const char* label = probe_.enabled() ? obs::message_label(msg) : nullptr;
    if (crashed_.at(index(to))) {
      if (label) {
        if (probe_.metrics) counters_for(label).dropped->add();
        // Like every drop, recorded on the sender with the recipient as
        // peer, so the event reads "p<from> message_drop <type> to p<to>".
        probe_.trace([&] {
          return obs::TraceEvent{obs::EventKind::kMessageDrop, simulator_.now(), from, to, -1,
                                 {}, label, static_cast<std::int64_t>(seq)};
        });
      }
      return;
    }
    ++delivered_;
    if (label) {
      if (probe_.metrics) counters_for(label).delivered->add();
      probe_.trace([&] {
        return obs::TraceEvent{obs::EventKind::kMessageDeliver, simulator_.now(), to, from, -1,
                               {}, label, static_cast<std::int64_t>(seq)};
      });
    }
    if (tagged && tap_) {
      tap_(from, to, msg, tag);
      return;
    }
    auto& handler = handlers_.at(index(to));
    if (handler) handler(from, msg);
  }

  /// Per-message-type counters, resolved once per (probe, type): the string
  /// concatenation happens on the first message of each type only, keyed on
  /// the label's (static) address afterwards.  Call only with metrics set.
  struct TypeCounters {
    obs::Counter* sent = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped = nullptr;
  };
  TypeCounters& counters_for(const char* label) {
    const auto it = type_counters_.find(label);
    if (it != type_counters_.end()) return it->second;
    const std::string name(label);
    TypeCounters c{&probe_.metrics->counter("net.sent." + name),
                   &probe_.metrics->counter("net.delivered." + name),
                   &probe_.metrics->counter("net.dropped." + name)};
    return type_counters_.emplace(label, c).first->second;
  }

  sim::Simulator& simulator_;
  std::unique_ptr<LatencyModel> model_;
  std::vector<Handler> handlers_;
  std::vector<bool> crashed_;
  util::Rng rng_;
  std::shared_ptr<faults::FaultPlan> faults_;
  obs::Probe probe_;
  DeliveryTap tap_;
  std::unordered_map<const char*, TypeCounters> type_counters_;
  std::uint64_t obs_seq_ = 0;  ///< per-message id linking send/deliver events
  std::size_t sent_ = 0;
  std::size_t delivered_ = 0;
};

}  // namespace twostep::net
