// Structured run tracing.
//
// A RunTracer turns one simulated run into an inspectable artifact: every
// interesting transition — message send/deliver/drop, crash, timer fire,
// ballot start, phase transition, 1B-aggregation verdict, proposal,
// decision — is recorded as a typed TraceEvent against virtual time.  The
// paper's central question ("*why* did this run decide in two steps?") is
// answered by reading the event stream: which quorum formed, which branch of
// the value-selection rule fired, who crashed when.
//
// Design constraints, in order:
//   1. Zero overhead when disabled.  Instrumentation sites hold an
//      obs::Probe whose tracer/metrics pointers default to null; the emit
//      helper takes a lambda that *builds* the event and only invokes it
//      when a tracer is installed (same idiom as TWOSTEP_LOG's lazy
//      streaming).  Labels are static strings — recording never formats.
//   2. Bounded memory.  Events land in an obs::Ring (oldest evicted) so
//      a tracer can stay attached to a long fuzzing or benchmark run.
//   3. Pluggable sinks.  A TraceSink observes every event as it is
//      recorded, before eviction can touch it — for streaming exporters or
//      test assertions.  obs/export.hpp turns the retained events into
//      spans for the Chrome exporter that live traces use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "consensus/types.hpp"
#include "obs/ring.hpp"
#include "sim/simulator.hpp"

namespace twostep::obs {

class MetricsRegistry;

/// What happened.  Every protocol maps its transitions onto this shared
/// vocabulary so one exporter serves the simulator, the network and all
/// protocol modules.
enum class EventKind : std::uint8_t {
  kMessageSend,       ///< process -> peer, label = message type
  kMessageDeliver,    ///< process received from peer
  kMessageDrop,       ///< lost: crash, injected drop or partition (see label)
  kMessageDuplicate,  ///< fault plan scheduled an extra copy
  kRetransmit,        ///< reliable channel re-sent an unacked message
  kCrash,             ///< process crashed (crash-stop)
  kRestart,           ///< crashed process restarted (crash-recovery)
  kTimerFire,         ///< a protocol timer fired at process; detail = timer id
  kBallotStart,       ///< process starts leading `ballot`
  kPhaseTransition,   ///< label names the phase edge (join_ballot, accept, ...)
  kSelectionVerdict,  ///< 1B aggregation ran; label = selection branch
  kProposal,          ///< process entered `value` into the initial configuration
  kDecision,          ///< process decided `value`; label = fast|slow|learned
};

/// Stable lowercase name for an event kind (used by the exporters).
[[nodiscard]] const char* kind_name(EventKind kind) noexcept;

/// One recorded event.  Fixed-size and trivially copyable: recording is a
/// struct copy into the ring, never an allocation or a string format.
/// Fields not meaningful for a kind keep their defaults (kNoProcess, -1, ⊥).
struct TraceEvent {
  EventKind kind = EventKind::kMessageSend;
  sim::Tick at = 0;                                       ///< virtual time
  consensus::ProcessId process = consensus::kNoProcess;   ///< primary actor
  consensus::ProcessId peer = consensus::kNoProcess;      ///< counterpart (from/to)
  consensus::Ballot ballot = -1;                          ///< -1 when not applicable
  consensus::Value value{};                               ///< ⊥ when not applicable
  const char* label = "";  ///< static string: message type / phase / branch
  std::int64_t detail = 0; ///< kind-specific payload (message seq, timer id)
};

/// Observer of the live event stream.  on_event runs synchronously inside
/// the instrumented code path; implementations must be cheap and must not
/// re-enter the tracer.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Bounded recorder: keeps the most recent `capacity` events and forwards
/// every event to the optional sink before it can ever be evicted.
class RunTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit RunTracer(std::size_t capacity = kDefaultCapacity);

  /// Installs (or, with nullptr, removes) the streaming sink.
  void set_sink(TraceSink* sink) noexcept { sink_ = sink; }

  void record(const TraceEvent& event) {
    if (sink_) sink_->on_event(event);
    ring_.push(event);
  }

  /// Retained events in chronological (recording) order.  Copies; intended
  /// for post-run export and test assertions, not hot paths.
  [[nodiscard]] std::vector<TraceEvent> events() const { return ring_.items(); }

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.capacity(); }
  /// Total events ever recorded, including those evicted from the ring.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return ring_.pushed(); }
  [[nodiscard]] std::uint64_t evicted() const noexcept { return recorded() - size(); }

  void clear() noexcept { ring_.clear(); }

 private:
  Ring<TraceEvent> ring_;
  TraceSink* sink_ = nullptr;
};

/// The handle instrumented code carries: a pair of optional pointers,
/// passed by value through Options structs and harness plumbing.  Both
/// null (the default) means observability is off and every emit site
/// reduces to one pointer test.
struct Probe {
  RunTracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;

  [[nodiscard]] bool tracing() const noexcept { return tracer != nullptr; }
  [[nodiscard]] bool enabled() const noexcept { return tracer != nullptr || metrics != nullptr; }

  /// Lazy emit: `build` must return a TraceEvent and is only invoked when a
  /// tracer is installed — the null-probe hot path does not construct,
  /// format or allocate anything.
  template <typename F>
  void trace(F&& build) const {
    if (tracer) tracer->record(build());
  }
};

/// Message-type label used by the network instrumentation.  Protocols
/// provide an ADL-found `message_name(const Msg&)` returning a static
/// string; message types without one (ad-hoc test payloads) fall back to
/// "msg".
template <typename Msg>
[[nodiscard]] const char* message_label(const Msg& m) {
  if constexpr (requires { { message_name(m) } -> std::convertible_to<const char*>; }) {
    return message_name(m);
  } else {
    return "msg";
  }
}

}  // namespace twostep::obs
