// Live node runtime: hosts one protocol instance behind the same
// consensus::Env the simulator uses, backed by real sockets.
//
// Runtime<P> owns an EventLoop thread, a listening socket, one outbound
// PeerLink per peer and the inbound connections peers and clients open to
// us.  The protocol instance never learns which world it is in: its Env
// calls turn into framed TCP sends, epoll timers and the monotonic clock
// (1 tick = 1 µs here, 1 abstract round unit in the simulator).
//
// Threading model (what keeps the conformance suite TSan-clean):
//   - the protocol, the links and all connections are touched ONLY on the
//     loop thread; external entry points (propose) hop through post(),
//   - cross-thread reads go through a mutex-guarded snapshot (decisions,
//     applied log, the link table) or relaxed atomics
//     (TransportStats, PeerLink::connected),
//   - the per-runtime MetricsRegistry is written on the loop thread; its
//     counters and log-histograms are internally thread-safe, so live
//     scrapes (kStatsRequest) read them without
//     waiting for stop().
//
// Start discipline: the protocol's start() is deferred to the first
// proposal or message delivery.  In the simulator, start_all() and the
// scheduled proposals happen at the same virtual instant; a live replica
// may sit idle for wall-clock seconds before the first request, and
// running the new-ballot timer during that idle stretch would drive the
// ballot past 0 and permanently close the fast path.  Deferring start()
// reproduces the simulator's "time begins with the run" semantics.
#pragma once

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "codec/codec.hpp"
#include "consensus/env.hpp"
#include "consensus/types.hpp"
#include "node/wire_traits.hpp"
#include "obs/flight.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "omega/omega.hpp"
#include "storage/durable.hpp"
#include "storage/engine.hpp"
#include "storage/wal.hpp"
#include "transport/chaos.hpp"
#include "transport/event_loop.hpp"
#include "transport/tcp.hpp"
#include "transport/wire.hpp"
#include "util/backoff.hpp"

namespace twostep::node {

/// Everything durable about a node, in one nested knob: the runtime
/// write-ahead-logs every protocol state transition under `dir` *before*
/// the messages revealing it leave the node, rebuilds the protocol from
/// snapshot + log tail on construction, and (when snapshot_every > 0)
/// periodically checkpoints the whole state and compacts the log behind
/// it.  This struct is THE storage configuration surface — Runtime,
/// LocalCluster and every CLI command forward it verbatim (LocalCluster
/// rewrites `dir` to a per-replica subdirectory); there are no parallel
/// copies of these fields anywhere else.
struct StorageOptions {
  /// Storage directory, created if absent; each replica uses the
  /// `replica-<id>/` subdirectory (WAL segments + snapshot).  Empty
  /// disables persistence entirely — enabled() gates every other field.
  std::string dir;
  bool fsync = true;  ///< fdatasync per barrier (off: bench/tests)
  /// When the WAL barrier runs.  Every message and client reply produced
  /// while records are unsynced is held until a barrier fsyncs them.  0
  /// runs the barrier at the end of each protocol entry that appended
  /// records; > 0 lets records accumulate and runs one barrier at most
  /// this many microseconds later (or sooner, when the held-message cap is
  /// hit).
  int group_commit_us = 0;
  /// WAL segment rotation threshold (storage::WalOptions::segment_bytes).
  std::uint64_t wal_segment_bytes = 8ull << 20;
  /// > 0: checkpoint the protocol state after this many WAL records and
  /// truncate the covered segments (protocols with storage::Snapshotable
  /// support only; rejected at construction otherwise).  0: log-only, the
  /// pre-snapshot behavior.
  std::uint64_t snapshot_every = 0;

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

/// Ω failure detection (omega::Detector over the current configuration's
/// members) and leader failover, run on the loop thread.  The protocol's
/// ballot-ownership hook (set_leader_of) reads the elected leader, so when
/// a leader dies the next timer firing on the new leader re-proposes every
/// undecided slot at a ballot it owns — a bounded unavailability window
/// instead of a stuck log.
struct FailoverOptions {
  bool enabled = false;
  /// Heartbeat broadcast + suspicion check period.
  std::int64_t period_us = 50'000;
  /// Initial suspicion timeout (upper bound of the first jittered draw).
  /// Each false suspicion of a peer doubles that peer's timeout, up to
  /// timeout_max_us, so a slow-but-alive peer stops flapping the leader.
  std::int64_t timeout_min_us = 250'000;
  std::int64_t timeout_max_us = 2'000'000;
  std::uint64_t seed = 1;
};

struct RuntimeOptions {
  /// Persist + recover acceptor state (protocols with storage::Durable
  /// support only; rejected at construction otherwise).  Disabled unless
  /// storage.dir is set.
  StorageOptions storage;
  /// Chaos stage on every outbound peer link (seeded per node).
  transport::ChaosConfig chaos;
  /// Span sink for wire-propagated request tracing (null = tracing off:
  /// traced client requests are served, their context just isn't recorded
  /// or forwarded).  Must outlive the runtime; internally synchronised.
  obs::FlightRecorder* flight = nullptr;
  /// Heartbeat failure detector + leader election (protocols exposing
  /// set_leader_of; silently inert otherwise).
  FailoverOptions failover;
  /// Applied-prefix gossip cadence (protocols exposing applied_prefix();
  /// silently inert otherwise).  Reconnect-triggered anti-entropy cannot
  /// heal a hole punched by frame loss on a connection that stays up, so
  /// every replica also sends its peers a Catchup on this period; each
  /// exchange heals whichever side is behind.  <= 0 disables.
  std::int64_t anti_entropy_period_us = 1'000'000;
};

/// True when P is a proxy-style replicated state machine (client commands
/// go through submit/on_commit) rather than single-shot consensus.
template <typename P>
concept RsmLike = requires(P p) {
  p.submit(std::int64_t{});
  p.on_commit;
  p.on_apply;
};

/// True when P can enumerate Decide retransmissions for anti-entropy: the
/// runtime resends them whenever an outbound link (re)establishes, so a
/// peer that missed the original broadcasts (crash, long outage past the
/// transport's bounded queue) still converges.
template <typename P>
concept HasDecideResend = requires(const P p) {
  { p.decide_messages() } -> std::same_as<std::vector<typename P::Message>>;
};

/// True when P hosts a reconfigurable log: membership changes are commands
/// in the replicated log (rsm::RsmProcess::submit_config) and the applied
/// configuration is observable.  The runtime then accepts kConfigCmd admin
/// frames and reacts to applied changes by dialing/retiring peer links.
template <typename P>
concept Reconfigurable = requires(P p) {
  p.submit_config(rsm::ConfigChange{});
  p.on_config;
  { p.config_version() } -> std::convertible_to<std::int32_t>;
};

/// True when P's ballot-ownership hook can be rebound at runtime (the
/// failure detector's elected leader feeds it).
template <typename P>
concept HasLeaderOf = requires(P p) {
  p.set_leader_of(std::function<consensus::ProcessId()>{});
};

template <typename P>
class Runtime {
 public:
  using Message = typename P::Message;
  /// Builds the protocol instance against the runtime's Env and metrics
  /// registry (wire options.probe.metrics at the registry to get per-node
  /// protocol metrics).  Called once, from the constructor, before the
  /// loop thread exists.
  using Factory =
      std::function<std::unique_ptr<P>(consensus::Env<Message>&, obs::MetricsRegistry&)>;

  /// Binds the listener immediately (`listen.port == 0` picks an ephemeral
  /// port, readable via endpoint() right away); I/O starts with start().
  /// With options.storage set, any WAL found in the directory is replayed
  /// into the freshly built protocol before this constructor returns, so
  /// the node rejoins with its pre-crash promises and votes.
  Runtime(consensus::ProcessId self, int cluster_size, transport::Endpoint listen,
          Factory factory, RuntimeOptions options = {})
      : self_(self),
        n_(cluster_size),
        listen_ep_(std::move(listen)),
        options_(std::move(options)),
        env_(*this) {
    listen_fd_ = transport::bind_listener(listen_ep_);
    loop_.add_fd(listen_fd_, EPOLLIN, [this](std::uint32_t) { on_accept(); });
    serve_us_ = &metrics_.log_histogram("node.serve_us");
    deliver_us_ = &metrics_.log_histogram("node.deliver_us");
    wal_sync_us_ = &metrics_.log_histogram("wal.sync_us");
    request_hop_us_ = &metrics_.log_histogram("node.request_hop_us");
    stats_.outbox_bytes = &metrics_.log_histogram("link.outbox_bytes");
    stats_.pending_frames = &metrics_.log_histogram("link.pending_frames");
    loop_.set_probe(transport::LoopProbe{
        .poll_us = &metrics_.log_histogram("loop.poll_us"),
        .work_us = &metrics_.log_histogram("loop.work_us"),
        .timer_depth = &metrics_.log_histogram("loop.timer_depth"),
        .posted_depth = &metrics_.log_histogram("loop.posted_depth")});
    flight_ = options_.flight;
    proc_ = factory(env_, metrics_);
    wire_callbacks();
    if (options_.failover.enabled)
      detector_.emplace(self_, options_.failover.timeout_min_us, options_.failover.timeout_max_us,
                        options_.failover.seed);
    // The detector's elected leader overrides the factory's static
    // leader_of: ballot ownership follows the lowest live member.
    if constexpr (HasLeaderOf<P>)
      if (detector_)
        proc_->set_leader_of([this] { return leader_.load(std::memory_order_relaxed); });
    init_storage();
    if constexpr (Reconfigurable<P>) {
      // Recovery may have replayed config changes; publish the recovered
      // membership for cross-thread readers before any I/O exists.
      const std::lock_guard<std::mutex> lock(state_mu_);
      members_ = proc_->members();
      config_version_ = proc_->config_version();
    }
    if (options_.chaos.enabled()) chaos_.emplace(options_.chaos, self_);
  }

  ~Runtime() { stop(); }
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] const transport::Endpoint& endpoint() const noexcept { return listen_ep_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return listen_ep_.port; }
  [[nodiscard]] consensus::ProcessId self() const noexcept { return self_; }

  /// Dials every peer and spawns the loop thread.  `peers[i]` is replica
  /// i's listen endpoint; `peers[self]` is ignored.  `peers` may be
  /// shorter than the recovered cluster size: endpoints of replicas that
  /// joined via a logged config change were learned during recovery and
  /// fill the tail.
  void start(std::vector<transport::Endpoint> peers) {
    peers_ = std::move(peers);
    if (static_cast<int>(peers_.size()) < n_) peers_.resize(static_cast<std::size_t>(n_));
    for (const auto& [id, ep] : learned_endpoints_)
      if (id >= 0 && id < n_ && peers_[static_cast<std::size_t>(id)].port == 0)
        peers_[static_cast<std::size_t>(id)] = ep;
    links_.resize(static_cast<std::size_t>(n_));
    for (consensus::ProcessId p = 0; p < n_; ++p) {
      if (p == self_ || removed_.contains(p)) continue;
      if (peers_[static_cast<std::size_t>(p)].port == 0) continue;  // endpoint unknown
      dial_peer(p);
    }
    arm_failover_timer();  // pre-thread timer scheduling is safe: loop not running yet
    arm_catchup_timer();
    thread_ = std::thread([this] { loop_.run(); });
  }

  /// Stops the loop, joins the thread and folds the transport counters
  /// into the metrics registry.  Idempotent.
  void stop() {
    if (thread_.joinable()) {
      loop_.request_stop();
      thread_.join();
      export_transport_metrics();
    }
    // Tear connections down after the join: loop-thread objects are only
    // safe to touch once the loop thread is gone.
    for (auto& link : links_)
      if (link) link->shutdown();
    inbound_.clear();
    inbound_peer_.clear();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  /// Injects a local proposal, as the simulator's proposal schedule would.
  /// Thread-safe (hops onto the loop thread).
  void propose(consensus::Value v) {
    loop_.post([this, v] {
      with_wal({}, [&] {
        ensure_started();
        if constexpr (RsmLike<P>) {
          proc_->submit(v.get());
        } else {
          if (proposed_) return;  // one proposal per process, as in the task model
          proposed_ = true;
          proc_->propose(v);
        }
      });
    });
  }

  /// Submits a membership change into the replicated log (Reconfigurable
  /// protocols only).  Fire-and-forget: the change is decided like any
  /// command and observable through members()/config_version() once
  /// applied.  Thread-safe (hops onto the loop thread).
  void propose_config(rsm::ConfigChange change) {
    if constexpr (Reconfigurable<P>) {
      loop_.post([this, change = std::move(change)] {
        with_wal({}, [&] {
          ensure_started();
          proc_->submit_config(change);
        });
      });
    }
  }

  /// Members of the last applied configuration (Reconfigurable protocols;
  /// 0..n-1 otherwise).  Thread-safe.
  [[nodiscard]] std::vector<consensus::ProcessId> members() const {
    const std::lock_guard<std::mutex> lock(state_mu_);
    if (!members_.empty()) return members_;
    std::vector<consensus::ProcessId> all;
    for (consensus::ProcessId p = 0; p < n_; ++p) all.push_back(p);
    return all;
  }

  /// Version of the last applied configuration (0 = genesis).  Thread-safe.
  [[nodiscard]] std::int32_t config_version() const {
    const std::lock_guard<std::mutex> lock(state_mu_);
    return config_version_;
  }

  /// The failure detector's elected leader (0 until the detector runs).
  [[nodiscard]] consensus::ProcessId leader() const noexcept {
    return leader_.load(std::memory_order_relaxed);
  }

  // --- cross-thread snapshots ---

  [[nodiscard]] bool has_decided() const {
    const std::lock_guard<std::mutex> lock(state_mu_);
    return !decided_.is_bottom();
  }
  [[nodiscard]] consensus::Value decided_value() const {
    const std::lock_guard<std::mutex> lock(state_mu_);
    return decided_;
  }
  /// RSM only: (slot, command) pairs applied so far, in log order.
  [[nodiscard]] std::vector<std::pair<std::int32_t, std::int64_t>> applied_log() const {
    const std::lock_guard<std::mutex> lock(state_mu_);
    return applied_;
  }
  /// Number of peers our outbound links currently reach.  Thread-safe.
  [[nodiscard]] int connected_out() const {
    const std::lock_guard<std::mutex> lock(links_mu_);
    int count = 0;
    for (const auto& link : links_)
      if (link && link->connected()) ++count;
    return count;
  }
  /// Number of distinct peers with an inbound (Hello-identified) connection
  /// to us.  A mesh is only usable when both directions are up: our dials
  /// may succeed while the peers' dials to us are still blackholed.
  [[nodiscard]] int connected_in() const noexcept {
    return inbound_count_.load(std::memory_order_relaxed);
  }
  /// Counts the events that move connected_out() / connected_in() (an
  /// outbound link coming up or retired, an inbound peer identifying or
  /// leaving).  Read it before reading the counts, then await_links_change
  /// sleeps until they may have moved.
  [[nodiscard]] std::uint64_t links_version() const noexcept { return links_version_.load(); }
  /// Blocks until links_version() differs from `seen` or `deadline`
  /// passes; returns whether it changed.
  bool await_links_change(std::uint64_t seen,
                          std::chrono::steady_clock::time_point deadline) const {
    std::unique_lock<std::mutex> lock(links_mu_);
    return links_cv_.wait_until(lock, deadline, [&] { return links_version_.load() != seen; });
  }

  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const transport::TransportStats& stats() const noexcept { return stats_; }

  /// The hosted protocol.  Only safe before start() or after stop().
  [[nodiscard]] P& unsafe_process() noexcept { return *proc_; }

 private:
  /// The Env implementation protocols see.  Loop-thread only.
  class LiveEnv final : public consensus::Env<Message> {
   public:
    explicit LiveEnv(Runtime& rt) : rt_(rt) {}
    [[nodiscard]] consensus::ProcessId self() const override { return rt_.self_; }
    [[nodiscard]] int cluster_size() const override { return rt_.n_; }
    [[nodiscard]] sim::Tick now() const override { return rt_.loop_.now_us(); }
    void send(consensus::ProcessId to, const Message& msg) override { rt_.send_msg(to, msg); }
    consensus::TimerId set_timer(sim::Tick delay) override {
      const std::uint64_t env_id = rt_.next_env_timer_++;
      const std::uint64_t loop_id = rt_.loop_.schedule_after(delay, [this, env_id] {
        rt_.env_timers_.erase(env_id);
        rt_.with_wal({}, [&] { rt_.proc_->on_timer(consensus::TimerId{env_id}); });
      });
      rt_.env_timers_.emplace(env_id, loop_id);
      return consensus::TimerId{env_id};
    }
    void cancel_timer(consensus::TimerId id) override {
      const auto it = rt_.env_timers_.find(id.value);
      if (it == rt_.env_timers_.end()) return;
      rt_.loop_.cancel_timer(it->second);
      rt_.env_timers_.erase(it);
    }

   private:
    Runtime& rt_;
  };

  struct OutstandingRequest {
    std::weak_ptr<transport::Connection> conn;
    std::int64_t request_id = 0;
    std::int64_t received_us = 0;
    std::int64_t client_id = 0;
    obs::TraceContext trace;          ///< client's wire context (inactive = untraced)
    std::uint64_t serve_span = 0;     ///< open "serve" span, closed by reply()
    std::int64_t serve_start_us = 0;  ///< raw-clock timestamp that span opened at
  };

  /// Per-client idempotency record: a failover client resends its current
  /// request under the same (client_id, request_id); answering from here —
  /// or re-attaching the new connection to the in-flight command — keeps
  /// retries from being executed twice by THIS node.  The table is
  /// volatile: a proxy that crashes mid-request may re-execute the retry,
  /// so cross-restart client semantics are at-least-once (the RSM log can
  /// hold a command twice; agreement and prefix consistency still hold).
  struct ClientDedup {
    std::int64_t last_id = 0;  ///< highest request id seen from this client
    std::int64_t cmd = 0;      ///< RSM: in-flight command of last_id
    bool done = false;
    codec::ClientReply reply;  ///< cached answer, valid when done
    /// The snapshot payload keeps everything but the in-flight command.
    template <class F>
    friend void fields(F& f, ClientDedup& d) {
      f(d.last_id, d.done, d.reply);
    }
  };
  using DedupTable = std::unordered_map<std::int64_t, ClientDedup>;

  /// Snapshot payload (the opaque blob storage::Engine frames): runtime
  /// section version 1, the dedup table (client_id -> ClientDedup), then the
  /// length-prefixed protocol blob (storage::Snapshotable<P>).  The dedup
  /// table rides along so a rejoining proxy keeps answering client retries
  /// idempotently instead of re-executing them.
  struct SnapshotPayload {
    DedupTable& dedup;
    std::vector<std::uint8_t>& blob;
    template <class F>
    friend void fields(F& f, SnapshotPayload p) {
      f(codec::Const<1>{}, p.dedup, p.blob);
    }
  };

  /// A protocol message parked behind the WAL barrier, with the trace
  /// context of the scope that produced it.
  struct HeldSend {
    consensus::ProcessId to;
    Message msg;
    obs::TraceContext ctx;
  };

  /// A client reply parked behind the WAL barrier: the proxy's own vote may
  /// be part of the deciding quorum and not yet durable, so acks wait for
  /// the barrier too (persist-before-ack).
  struct HeldReply {
    OutstandingRequest req;
    codec::ClientReply msg;
  };

  /// Held sends + replies beyond this force an immediate barrier, bounding
  /// both memory and the latency a deep batch can hide behind the timer.
  static constexpr std::size_t kMaxHeldMessages = 512;

  void wire_callbacks() {
    if constexpr (RsmLike<P>) {
      proc_->on_apply = [this](std::int32_t slot, std::int64_t cmd) {
        const std::lock_guard<std::mutex> lock(state_mu_);
        applied_.emplace_back(slot, cmd);
      };
      proc_->on_commit = [this](std::int64_t cmd, sim::Tick, std::int32_t slot) {
        const auto it = outstanding_rsm_.find(cmd);
        if (it == outstanding_rsm_.end()) return;
        answer(it->second, codec::ClientReply{it->second.request_id, cmd, slot, true});
        outstanding_rsm_.erase(it);
      };
      if constexpr (Reconfigurable<P>) {
        proc_->on_config = [this](std::int32_t slot, const rsm::ConfigChange& change,
                                  const rsm::ConfigEpoch& epoch) {
          handle_config_applied(slot, change, epoch);
        };
      }
    } else {
      proc_->on_decide = [this](consensus::Value v) {
        {
          const std::lock_guard<std::mutex> lock(state_mu_);
          decided_ = v;
        }
        for (const OutstandingRequest& req : outstanding_)
          answer(req, codec::ClientReply{req.request_id, v.get(), -1, true});
        outstanding_.clear();
      };
    }
  }

  void ensure_started() {
    if (proto_started_) return;
    proto_started_ = true;
    proc_->start();
  }

  /// Creates, wires and starts the outbound link to `p` (loop thread, or
  /// pre-thread from start()).  Idempotent: an existing link is kept.
  void dial_peer(consensus::ProcessId p) {
    const auto idx = static_cast<std::size_t>(p);
    if (p == self_ || p < 0 || idx >= links_.size() || links_[idx]) return;
    {
      const std::lock_guard<std::mutex> lock(links_mu_);
      links_[idx] = std::make_unique<transport::PeerLink>(loop_, self_, p, peers_[idx], &stats_);
    }
    if (chaos_) links_[idx]->set_chaos(&*chaos_);
    links_[idx]->set_on_connected([this, p, idx] {
      links_changed();
      // p may have missed what we sent while the link was down.  With an
      // applied prefix, send p ours: if p is behind it answers with its
      // own, and handle_catchup heals it from there (snapshot included).
      if constexpr (kHasAppliedPrefix)
        links_[idx]->send_frame(transport::FrameKind::kCatchup, catchup_frame());
      else
        resend_decided_to(p);
    });
    links_[idx]->start();
  }

  // ---- membership reconfiguration (loop thread; also pre-thread during
  // WAL replay / snapshot recovery in the constructor) ----

  /// Reaction to an applied config change, fired by the protocol's
  /// on_config hook: adopt the new membership, dial a joiner / retire a
  /// removed replica's link, and re-checkpoint so the next snapshot offer
  /// carries the config-bearing state a joiner needs.
  void handle_config_applied(std::int32_t slot, const rsm::ConfigChange& change,
                             const rsm::ConfigEpoch& epoch) {
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      members_ = epoch.members;
      config_version_ = epoch.version;
    }
    if (change.op == rsm::ConfigChange::Op::kAdd) {
      metrics_.counter("config.adds_applied").add();
      removed_.erase(change.replica);
      learned_endpoints_[change.replica] =
          transport::Endpoint{change.host, change.port};
      if (epoch.universe > n_) n_ = epoch.universe;
      if (!links_.empty()) {  // start() already ran: grow + dial at runtime
        {
          const std::lock_guard<std::mutex> lock(links_mu_);
          links_.resize(static_cast<std::size_t>(n_));
        }
        peers_.resize(static_cast<std::size_t>(n_));
        if (change.replica != self_) {
          peers_[static_cast<std::size_t>(change.replica)] =
              transport::Endpoint{change.host, change.port};
          dial_peer(change.replica);
        }
        // Checkpoint as soon as the current protocol entry unwinds: the
        // joiner is healed by snapshot state transfer, and only a snapshot
        // taken from post-change state carries the epoch it must adopt.
        if (engine_) loop_.post([this] {
          if (engine_) take_snapshot();
        });
      }
    } else {
      metrics_.counter("config.removes_applied").add();
      removed_.insert(change.replica);
      if (transport::PeerLink* link = link_to(change.replica)) {
        link->shutdown();  // treat-as-crashed: stop talking to it
        {
          const std::lock_guard<std::mutex> lock(links_mu_);
          links_[static_cast<std::size_t>(change.replica)].reset();
        }
        links_changed();
      }
      if (detector_) detector_->forget(change.replica);
    }
    recompute_leader();
    (void)slot;
  }

  // ---- failure detection & leader election (loop thread only) ----
  // omega::Detector decides; the runtime keeps the I/O: the period timer,
  // Heartbeat/Handover frames, the leader_ atomic and failover.* counters.

  /// Any authenticated inbound traffic from `p` counts as life, not just
  /// heartbeats — a peer pushing slot traffic is evidently up.
  void note_alive(consensus::ProcessId p) {
    if (detector_ && detector_->heard(p, loop_.now_us())) {
      metrics_.counter("failover.false_suspicions").add();
      recompute_leader();
    }
  }

  /// The members the detector elects from: the applied configuration's
  /// for Reconfigurable protocols, 0..n-1 otherwise (nothing is removed).
  [[nodiscard]] std::vector<consensus::ProcessId> detector_members() const {
    if constexpr (Reconfigurable<P>) return proc_->members();
    std::vector<consensus::ProcessId> all(static_cast<std::size_t>(n_));
    std::iota(all.begin(), all.end(), 0);
    return all;
  }

  /// Every period: heartbeat the members, then run the suspicion scan.
  void arm_failover_timer() {
    if (!detector_) return;
    loop_.schedule_after(options_.failover.period_us, [this] {
      const std::vector<consensus::ProcessId> members = detector_members();
      send_to_members<codec::Heartbeat>(transport::FrameKind::kHeartbeat, members);
      if (const int n = detector_->check(members, loop_.now_us()))
        metrics_.counter("failover.suspicions").add(n);
      recompute_leader();
      arm_failover_timer();
    });
  }

  /// Sends a Frame{self, config version} (Heartbeat or Handover) to every
  /// other member.
  template <class Frame>
  void send_to_members(transport::FrameKind kind,
                       const std::vector<consensus::ProcessId>& members) {
    std::int32_t version = 0;
    if constexpr (Reconfigurable<P>) version = proc_->config_version();
    const std::vector<std::uint8_t> frame = codec::encode(Frame{self_, version});
    for (const consensus::ProcessId m : members)
      if (transport::PeerLink* link = link_to(m)) link->send_frame(kind, frame);
  }

  /// Publishes the detector's leader through the leader_ atomic (the
  /// protocol's ballot ownership reads it).  On winning the election
  /// ourselves, broadcast a Handover so followers converge without waiting
  /// out their own timeouts; the undecided slots are re-proposed by the
  /// protocol's ballot timers once leader_of reports us.
  void recompute_leader() {
    if (!detector_) return;
    const std::vector<consensus::ProcessId> members = detector_members();
    const consensus::ProcessId elected = detector_->leader(members);
    if (elected == leader_.load(std::memory_order_relaxed)) return;
    leader_.store(elected, std::memory_order_relaxed);
    metrics_.counter("failover.leader_changes").add();
    if (elected == self_) {
      metrics_.counter("failover.handovers_sent").add();
      send_to_members<codec::Handover>(transport::FrameKind::kHandover, members);
    }
  }

  /// A Handover from `from` claims every member below it is gone; the
  /// detector adopts the claim for members not heard within one period.
  void handle_handover(consensus::ProcessId from) {
    if (!detector_ || from == self_) return;
    note_alive(from);
    if (const int n = detector_->handover(from, detector_members(), loop_.now_us(),
                                          options_.failover.period_us))
      metrics_.counter("failover.suspicions_by_handover").add(n);
    recompute_leader();
  }

  /// Opens the storage engine and recovers: install the snapshot (if any),
  /// then replay the WAL tail on top.  Runs in the constructor, after the
  /// protocol is built and its callbacks are wired (so a replayed apply
  /// rebuilds the cross-thread log snapshot) but before any I/O exists —
  /// recovery completes without a single message.
  void init_storage() {
    if (!options_.storage.enabled()) return;
    if constexpr (!storage::kHasDurable<P>) {
      throw std::invalid_argument("Runtime: protocol has no storage::Durable support");
    } else {
      if (options_.storage.snapshot_every > 0 && !storage::kHasSnapshot<P>)
        throw std::invalid_argument("Runtime: protocol has no storage::Snapshotable support");
      storage::EngineOptions engine_options;
      engine_options.fsync = options_.storage.fsync;
      engine_options.segment_bytes = options_.storage.wal_segment_bytes;
      engine_options.snapshot_every = options_.storage.snapshot_every;
      engine_.emplace(options_.storage.dir + "/replica-" + std::to_string(self_),
                      std::move(engine_options));
      wal_ = &engine_->wal();
      barriers_ = &metrics_.counter("wal.barriers");
      if (options_.storage.group_commit_us > 0)
        barrier_records_ = &metrics_.log_histogram("wal.barrier_records");
      bool recovered_snapshot = false;
      if (engine_->snapshot()) {
        if (install_snapshot_payload(engine_->snapshot()->payload)) {
          recovered_snapshot = true;
          metrics_.counter("snapshot.recovered").add();
        } else {
          // Undecodable payload behind a valid CRC frame: same fallback as
          // a corrupt file — the WAL tail is every surviving record.
          metrics_.counter("snapshot.corrupt").add();
        }
      } else if (engine_->snapshot_corrupt()) {
        metrics_.counter("snapshot.corrupt").add();
      }
      const auto tail = engine_->tail();
      if (!recovered_snapshot && tail.empty()) return;
      for (const auto& record : tail) durable_.replay(*proc_, record.bytes);
      durable_.note_recovery(*proc_, metrics_);
      metrics_.counter("wal.recovered_records").add(tail.size());
      metrics_.counter("wal.truncated_bytes").add(wal_->truncated_bytes());
      metrics_.counter("wal.truncated_records").add(wal_->truncated_records());
      if constexpr (!RsmLike<P>) {
        if (proc_->has_decided()) {
          const std::lock_guard<std::mutex> lock(state_mu_);
          decided_ = proc_->decided_value();
        }
      }
      // Resume liveness: re-arm the ballot timers for whatever is undecided.
      // (Timer scheduling pre-thread is safe — the loop is not running yet.)
      ensure_started();
    }
  }

  /// Wraps one protocol entry point under the write-ahead discipline.  The
  /// entry runs with `ctx` as the trace context of the sends it causes;
  /// its messages and client replies are held, its changed state is
  /// appended to the WAL, and the held traffic leaves only once the
  /// barrier (run_barrier) has synced those records.  A crash between the
  /// state change and the sync thus loses state *nobody has seen* — the
  /// torn tail the WAL truncates on restart.
  ///
  /// options_.storage.group_commit_us decides only when the barrier runs:
  /// 0 runs it at the end of this entry; > 0 arms a timer so that one
  /// fdatasync covers every entry appended until it fires (or until
  /// kMaxHeldMessages are held).  Traffic produced outside any entry while
  /// records are unsynced waits for the same barrier (see holding()).
  template <typename Fn>
  void with_wal(const obs::TraceContext& ctx, Fn&& fn) {
    const obs::TraceContext saved_ctx = std::exchange(out_ctx_, ctx);
    if (!wal_ || entry_active_) {
      fn();
    } else {
      entry_active_ = true;
      fn();
      durable_.capture(*proc_, *wal_);
      entry_active_ = false;
      if (options_.storage.group_commit_us > 0 && wal_->has_pending() &&
          held_sends_.size() + held_replies_.size() < kMaxHeldMessages)
        arm_barrier();
      else
        run_barrier();
    }
    out_ctx_ = saved_ctx;
  }

  /// True while a protocol message or client reply must not leave: an
  /// entry is running, or WAL records are appended but not yet synced.
  [[nodiscard]] bool holding() const { return wal_ && (entry_active_ || wal_->has_pending()); }

  /// Arms the group-commit barrier timer if none is pending.
  void arm_barrier() {
    if (barrier_timer_ != 0) return;
    barrier_timer_ = loop_.schedule_after(options_.storage.group_commit_us, [this] {
      barrier_timer_ = 0;
      run_barrier();
    });
  }

  /// The barrier: one fdatasync covering every record appended since the
  /// last one, then the held traffic leaves.  Client replies go first: once
  /// synced either order is safe, and a client is waiting on the reply
  /// while peers' flushes would only delay it.  Protocol messages follow,
  /// each under the trace context it was sent in.  Run at the end of an
  /// entry, the sync is a wal.fsync span of that entry's trace.
  void run_barrier() {
    if (barrier_timer_ != 0) {
      loop_.cancel_timer(barrier_timer_);
      barrier_timer_ = 0;
    }
    if (wal_->has_pending()) {
      if (barrier_records_)
        barrier_records_->record(static_cast<std::int64_t>(wal_->pending_records()));
      const std::int64_t sync_start_us = obs::FlightRecorder::now_us();
      wal_->sync();
      const std::int64_t sync_us = obs::FlightRecorder::now_us() - sync_start_us;
      wal_sync_us_->record(sync_us);
      barriers_->add();
      if (flight_ && out_ctx_.active())
        flight_->record({out_ctx_.trace_id, flight_->next_span_id(), out_ctx_.parent_span,
                         "wal.fsync", sync_start_us, sync_us, 0});
    }
    std::vector<HeldReply> replies;
    replies.swap(held_replies_);
    for (const HeldReply& r : replies) send_reply_now(r.req, r.msg);
    std::vector<HeldSend> sends;
    sends.swap(held_sends_);
    const obs::TraceContext saved_ctx = out_ctx_;
    for (const HeldSend& h : sends) {
      out_ctx_ = h.ctx;
      raw_send(h.to, h.msg);
    }
    out_ctx_ = saved_ctx;
    maybe_snapshot();
  }

  void send_msg(consensus::ProcessId to, const Message& msg) {
    if (holding()) {
      held_sends_.push_back(HeldSend{to, msg, out_ctx_});
      return;
    }
    raw_send(to, msg);
  }

  void raw_send(consensus::ProcessId to, const Message& msg) {
    if (to == self_) {
      // Queue through the loop so self-delivery is never reentrant — the
      // simulator likewise delivers self-sends as later events.  The trace
      // context rides the lambda so the causal chain survives the hop.
      loop_.post([this, msg, ctx = out_ctx_] { deliver(self_, msg, ctx); });
      return;
    }
    transport::PeerLink* link = link_to(to);
    if (!link) return;
    const transport::FrameKind kind = WireTraits<Message>::kind_of(msg);
    if (out_ctx_.active()) {
      // Wrap the protocol frame so the receiver can parent its handling
      // span on ours; untraced sends keep the bare frame (and its cost).
      const codec::TracedFrame traced{static_cast<std::uint8_t>(kind), out_ctx_,
                                      WireTraits<Message>::encode(msg)};
      link->send_frame(transport::FrameKind::kTraced, codec::encode(traced));
    } else {
      link->send_frame(kind, WireTraits<Message>::encode(msg));
    }
  }

  /// The outbound link to peer `p`, or null (no such peer, self, retired,
  /// or before start()).
  [[nodiscard]] transport::PeerLink* link_to(consensus::ProcessId p) const {
    const auto idx = static_cast<std::size_t>(p);
    return p >= 0 && idx < links_.size() ? links_[idx].get() : nullptr;
  }

  /// Runs the protocol's message handler under the WAL discipline.  With an
  /// active trace context the handling becomes a span (named after the
  /// message type, parented on the sender's span) and every send it causes
  /// carries that span as the new parent.
  void deliver(consensus::ProcessId from, const Message& msg,
               const obs::TraceContext& ctx = {}) {
    obs::TraceContext entry_ctx;
    std::int64_t span_start_us = 0;
    if (flight_ && ctx.active()) {
      span_start_us = obs::FlightRecorder::now_us();
      entry_ctx = obs::TraceContext{ctx.trace_id, flight_->next_span_id(), ctx.origin_us};
    }
    const std::int64_t t0 = loop_.now_us();
    with_wal(entry_ctx, [&] {
      ensure_started();
      proc_->on_message(from, msg);
    });
    deliver_us_->record(loop_.now_us() - t0);
    if (entry_ctx.active())
      flight_->record({ctx.trace_id, entry_ctx.parent_span, ctx.parent_span,
                       obs::message_label(msg), span_start_us,
                       obs::FlightRecorder::now_us() - span_start_us,
                       static_cast<std::int64_t>(from)});
  }

  void on_accept() {
    for (;;) {
      const int cfd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (cfd < 0) return;  // EAGAIN or transient error; epoll re-notifies
      auto conn = std::make_shared<transport::Connection>(loop_, cfd, &stats_);
      inbound_.insert(conn);
      std::weak_ptr<transport::Connection> weak = conn;
      conn->start(
          [this, weak](transport::Frame&& frame) {
            if (auto c = weak.lock()) on_inbound_frame(c, std::move(frame));
          },
          [this, weak] {
            if (auto c = weak.lock()) {
              inbound_peer_.erase(c.get());
              inbound_.erase(c);
              refresh_inbound_count();
            }
          });
    }
  }

  void on_inbound_frame(const std::shared_ptr<transport::Connection>& conn,
                        transport::Frame&& frame) {
    switch (frame.kind) {
      case transport::FrameKind::kHello: {
        const auto peer = transport::decode_hello(frame.payload);
        // Ids beyond n_ are accepted (bounded): a joining replica dials
        // the existing cluster before the config change admitting it is
        // applied here, and closing its connection would force it into a
        // redial loop for no safety gain — its protocol frames are gated
        // by the per-slot config stamp regardless.
        if (!peer || *peer < 0 || *peer >= kMaxPeerId) {
          conn->close();
          inbound_peer_.erase(conn.get());
          inbound_.erase(conn);
          refresh_inbound_count();
          return;
        }
        inbound_peer_[conn.get()] = *peer;
        refresh_inbound_count();
        if constexpr (kHasAppliedPrefix) catchup_unanswered_.insert(*peer);
        // The peer is up: redial it now, not at the next backoff retry.
        if (transport::PeerLink* link = link_to(*peer)) link->redial_now();
        return;
      }
      case transport::FrameKind::kConfigCmd: {
        // Membership administration: Hello-less like kStatsRequest (the
        // CLI's join/leave verbs connect as clients), acknowledged through
        // the same on_commit path as client commands once the change
        // decides.
        const auto cmd = codec::decode_config_command(frame.payload);
        if (cmd) handle_config_command(conn, *cmd);
        return;
      }
      case transport::FrameKind::kClientRequest: {
        const auto req = codec::decode_client_request(frame.payload);
        if (req) handle_client_request(conn, *req);
        return;
      }
      case transport::FrameKind::kStatsRequest: {
        // Observability scrape: no Hello needed (clients and tools ask),
        // read-only, answered synchronously on the loop thread.
        const auto scrape = codec::decode_stats_request(frame.payload);
        if (!scrape) return;
        conn->send_frame(transport::FrameKind::kStatsReply,
                         codec::encode(codec::StatsReply{scrape->id, build_stats_json()}));
        return;
      }
      default:
        break;
    }
    // Every other frame is peer-only: its sender must have said Hello.
    const auto sender = inbound_peer_.find(conn.get());
    if (sender == inbound_peer_.end()) return;
    const consensus::ProcessId from = sender->second;
    switch (frame.kind) {
      case transport::FrameKind::kHeartbeat:
        if (codec::decode_heartbeat(frame.payload)) note_alive(from);
        return;
      case transport::FrameKind::kHandover:
        if (codec::decode_handover(frame.payload)) handle_handover(from);
        return;
      case transport::FrameKind::kCatchup: {
        const auto cu = codec::decode_catchup(frame.payload);
        if (!cu) return;
        metrics_.counter("node.catchup_received").add();
        // The first Catchup after a Hello is the peer's reconnect Catchup.
        handle_catchup(from, cu->applied, catchup_unanswered_.erase(from) > 0);
        return;
      }
      case transport::FrameKind::kTraced: {
        const auto traced = codec::decode_traced(frame.payload);
        if (!traced) return;
        const auto inner_kind = static_cast<transport::FrameKind>(traced->inner_kind);
        if (!WireTraits<Message>::accepts(inner_kind))
          return;  // traced frame for a protocol we don't host
        note_alive(from);
        auto inner = WireTraits<Message>::decode(inner_kind, traced->inner);
        if (!inner) return;
        deliver(from, *inner, traced->trace);
        return;
      }
      case transport::FrameKind::kSnapshotOffer:
        if constexpr (storage::kHasSnapshot<P>)
          if (const auto offer = codec::decode_snapshot_offer(frame.payload))
            handle_snapshot_offer(from, *offer);
        return;
      case transport::FrameKind::kSnapshotRequest:
        if constexpr (storage::kHasSnapshot<P>)
          if (const auto req = codec::decode_snapshot_request(frame.payload))
            handle_snapshot_request(from, *req);
        return;
      case transport::FrameKind::kSnapshotChunk:
        if constexpr (storage::kHasSnapshot<P>)
          if (auto chunk = codec::decode_snapshot_chunk(frame.payload))
            handle_snapshot_chunk(std::move(*chunk));
        return;
      default:
        break;
    }
    if (!WireTraits<Message>::accepts(frame.kind)) return;  // not ours; drop
    note_alive(from);
    auto msg = WireTraits<Message>::decode(frame.kind, frame.payload);
    if (!msg) return;  // malformed payload inside a well-formed frame
    deliver(from, *msg);
  }

  void handle_client_request(const std::shared_ptr<transport::Connection>& conn,
                             const codec::ClientRequest& req) {
    OutstandingRequest out;
    out.conn = conn;
    out.request_id = req.id;
    out.received_us = loop_.now_us();
    out.client_id = req.client_id;
    if (req.trace.active()) {
      const std::int64_t arrival_us = obs::FlightRecorder::now_us();
      // The client stamped origin_us from the same raw monotonic clock (all
      // processes share one machine), so the difference is the wire hop.
      const std::int64_t hop_us = arrival_us - req.trace.origin_us;
      if (hop_us >= 0) request_hop_us_->record(hop_us);
      if (flight_) {
        out.trace = req.trace;
        out.serve_span = flight_->next_span_id();
        out.serve_start_us = arrival_us;
      }
    }
    // Failover dedup: a client that lost its connection resends the same
    // (client_id, id).  Answer completed requests from the cache, re-attach
    // the new connection to a still-in-flight one, and drop stale ids —
    // never submit the same request twice.
    if (req.client_id != 0) {
      const auto it = dedup_.find(req.client_id);
      if (it != dedup_.end()) {
        ClientDedup& d = it->second;
        if (req.id < d.last_id) return;  // stale retry of an old request
        if (req.id == d.last_id) {
          if (d.done) {
            codec::ClientReply cached = d.reply;
            cached.id = req.id;
            reply(out, cached);
            return;
          }
          metrics_.counter("node.dedup_reattach").add();
          if constexpr (RsmLike<P>) {
            const auto in_flight = outstanding_rsm_.find(d.cmd);
            if (in_flight != outstanding_rsm_.end()) in_flight->second = std::move(out);
          } else {
            for (OutstandingRequest& r : outstanding_)
              if (r.client_id == req.client_id && r.request_id == req.id) r = std::move(out);
          }
          return;
        }
      }
      ClientDedup& d = dedup_[req.client_id];
      d.last_id = req.id;
      d.done = false;
    }
    // Everything the protocol does on behalf of this request is parented
    // on the serve span.  Read the span fields now: `out` is moved below.
    const obs::TraceContext ctx =
        out.serve_span != 0
            ? obs::TraceContext{out.trace.trace_id, out.serve_span, out.trace.origin_us}
            : obs::TraceContext{};
    with_wal(ctx, [&] {
      if constexpr (RsmLike<P>) {
        // The command encoding packs (proxy, payload) into 64 bits; RSMs
        // that reserve payload bits (batching handles) shrink the client
        // space further and advertise it through max_payload().
        std::int64_t payload_limit = (std::int64_t{1} << 40) - 1;
        if constexpr (requires(const P& p) {
                        { p.max_payload() } -> std::convertible_to<std::int64_t>;
                      })
          payload_limit = proc_->max_payload();
        if (req.payload < 0 || req.payload > payload_limit) {
          reply(out, codec::ClientReply{req.id, req.payload, -1, false});
          return;
        }
        ensure_started();
        const std::int64_t cmd = proc_->submit(req.payload);
        if (req.client_id != 0) dedup_[req.client_id].cmd = cmd;
        outstanding_rsm_.insert_or_assign(cmd, std::move(out));
      } else {
        ensure_started();
        {
          const std::lock_guard<std::mutex> lock(state_mu_);
          if (!decided_.is_bottom()) {
            reply(out, codec::ClientReply{req.id, decided_.get(), -1, true});
            return;
          }
        }
        outstanding_.push_back(std::move(out));
        if (!proposed_) {
          proposed_ = true;
          proc_->propose(consensus::Value{req.payload});
        }
      }
    });
  }

  /// Sane ceiling on Hello-announced peer ids: large enough for any
  /// realistic reconfiguration history, small enough that a garbage Hello
  /// cannot make inbound_peer_ index bookkeeping pathological.
  static constexpr consensus::ProcessId kMaxPeerId = 1 << 16;

  /// A join/leave admin command: submit the change into the log and ack
  /// the requester when it decides, riding the client-reply machinery
  /// (reply.slot is the deciding slot, reply.value the internal command).
  void handle_config_command(const std::shared_ptr<transport::Connection>& conn,
                             const codec::ConfigCommand& cmd) {
    OutstandingRequest out;
    out.conn = conn;
    out.request_id = cmd.id;
    out.received_us = loop_.now_us();
    if constexpr (Reconfigurable<P>) {
      if (cmd.change.replica >= 0 && cmd.change.replica < kMaxPeerId) {
        metrics_.counter("config.commands").add();
        with_wal({}, [&] {
          ensure_started();
          const std::int64_t handle = proc_->submit_config(cmd.change);
          outstanding_rsm_.insert_or_assign(handle, std::move(out));
        });
        return;
      }
    }
    reply(out, codec::ClientReply{cmd.id, 0, -1, false});  // bad id, or not reconfigurable
  }

  /// Records `msg` as the answer in the client's dedup record when `req`
  /// is its latest request, then replies.
  void answer(const OutstandingRequest& req, const codec::ClientReply& msg) {
    if (req.client_id != 0) {
      ClientDedup& d = dedup_[req.client_id];
      if (d.last_id == req.request_id) {
        d.done = true;
        d.reply = msg;
      }
    }
    reply(req, msg);
  }

  void reply(const OutstandingRequest& req, const codec::ClientReply& msg) {
    // The decision a reply reports may rest on this node's own unsynced vote.
    if (holding()) {
      held_replies_.push_back(HeldReply{req, msg});
      return;
    }
    send_reply_now(req, msg);
  }

  void send_reply_now(const OutstandingRequest& req, const codec::ClientReply& msg) {
    const auto conn = req.conn.lock();
    if (!conn || conn->closed()) return;
    serve_us_->record(loop_.now_us() - req.received_us);
    if (req.serve_span != 0)  // nonzero only when flight_ is installed
      flight_->record({req.trace.trace_id, req.serve_span, req.trace.parent_span, "serve",
                       req.serve_start_us,
                       obs::FlightRecorder::now_us() - req.serve_start_us, req.request_id});
    conn->send_frame(transport::FrameKind::kClientReply, codec::encode(msg));
  }

  /// Decide anti-entropy: a peer that was unreachable may have missed
  /// Decide broadcasts for good (the disconnected queue is bounded, and a
  /// non-leader's ballot timers cannot recover a slot whose leader already
  /// decided), so resend what we know to be decided.  Pure retransmission
  /// of existing protocol messages — receivers that already decided ignore
  /// them.  Runs on the loop thread.  `from_slot` bounds the resend to the
  /// decisions at or above it (handle_catchup passes the peer's applied
  /// prefix); protocols without an applied prefix resend everything on
  /// each reconnect.
  void resend_decided_to(consensus::ProcessId peer, std::int32_t from_slot = 0) {
    if constexpr (HasDecideResend<P>) {
      std::vector<Message> msgs;
      if constexpr (requires { proc_->decide_messages(from_slot); })
        msgs = proc_->decide_messages(from_slot);
      else
        msgs = proc_->decide_messages();
      for (const auto& m : msgs) send_msg(peer, m);
      if (!msgs.empty()) metrics_.counter("node.decide_resent").add(msgs.size());
    }
  }

  /// True when P exposes the applied prefix the catch-up gossip compares.
  static constexpr bool kHasAppliedPrefix = requires(const P p) { p.applied_prefix(); };
  // The snapshot code below reads P's applied prefix and compaction floor
  // directly: every Snapshotable protocol has both.
  static_assert(!storage::kHasSnapshot<P> || kHasAppliedPrefix);

  /// Periodic arm of anti-entropy.  The reconnect Catchup misses one
  /// failure shape: a Decide dropped by the network (chaos, or a real
  /// lossy path) on a connection that never re-establishes, after the
  /// sender's last checkpoint — no reconnect, no fresh snapshot offer, and
  /// a non-leader receiver has no ballot of its own to recover the slot
  /// with.  So each replica also sends its Catchup on a slow timer.  First
  /// tick is skewed per replica so a cluster doesn't gossip in lockstep.
  void arm_catchup_timer() {
    if constexpr (kHasAppliedPrefix) {
      const std::int64_t period = options_.anti_entropy_period_us;
      if (period <= 0) return;
      const std::int64_t skew = static_cast<std::int64_t>(
          util::splitmix64(static_cast<std::uint64_t>(self_), 0x05e1f) %
          static_cast<std::uint64_t>(period));
      loop_.schedule_after(period + skew, [this] { catchup_tick(); });
    }
  }

  /// Our applied prefix, as a Catchup frame.
  [[nodiscard]] std::vector<std::uint8_t> catchup_frame() const {
    std::int64_t applied = 0;
    if constexpr (kHasAppliedPrefix) applied = std::max<std::int64_t>(proc_->applied_prefix(), 0);
    return codec::encode(codec::Catchup{self_, applied});
  }

  void catchup_tick() {
    if constexpr (kHasAppliedPrefix) {
      // A down link's on_connected sends a fresh Catchup; don't queue a stale one.
      const std::vector<std::uint8_t> frame = catchup_frame();
      for (auto& link : links_)
        if (link && link->connected()) link->send_frame(transport::FrameKind::kCatchup, frame);
      metrics_.counter("node.catchup_sent").add();
      loop_.schedule_after(options_.anti_entropy_period_us, [this] { catchup_tick(); });
    }
  }

  /// A peer's applied prefix.  If it is behind us, heal it from that
  /// prefix up.  If it is ahead and this is its `reconnect` Catchup, answer
  /// with ours so it heals us: our link to it may never have dropped.  (A
  /// periodic one needs no answer; every replica sends its own.)  Only over
  /// a connected link: a resend into the bounded disconnected queue would
  /// mostly be dropped, and on_connected restarts the exchange anyway.
  void handle_catchup(consensus::ProcessId from, std::int64_t peer_applied, bool reconnect) {
    if constexpr (kHasAppliedPrefix) {
      transport::PeerLink* link = link_to(from);
      if (!link || !link->connected()) return;
      const auto applied = static_cast<std::int64_t>(proc_->applied_prefix());
      if (reconnect && peer_applied > applied)
        link->send_frame(transport::FrameKind::kCatchup, catchup_frame());
      if (peer_applied >= applied) return;
      offer_snapshot_to(from);  // heals a laggard below our compaction floor
      // ...and the tail above it: only the slots the peer has not applied
      // (below our own applied prefix, so the value fits a slot number).
      resend_decided_to(from, static_cast<std::int32_t>(std::max<std::int64_t>(peer_applied, 0)));
      metrics_.counter("node.catchup_served").add();
    }
  }

  // ---- snapshots & snapshot state transfer (loop thread only) ----

  /// Chunk size for snapshot transfer: comfortably under the 1 MiB frame
  /// cap, large enough that a multi-megabyte snapshot moves in a handful
  /// of frames.
  static constexpr std::size_t kSnapshotChunkBytes = 256 * 1024;
  // A laggard re-requests from its received prefix until the transfer
  // completes.  Chunks lost to chaos or a reconnect are recovered by these
  // re-requests: the first fires within kTransferRetryMinUs, then the delay
  // doubles (jittered, see util::Backoff) up to kTransferRetryMaxUs.  The
  // floor bounds how fast a laggard heals and the cap bounds retry traffic.
  static constexpr std::int64_t kTransferRetryMinUs = 300'000;
  static constexpr std::int64_t kTransferRetryMaxUs = 2'000'000;

  /// Checkpoint trigger, checked after every WAL barrier, which is the
  /// only time the WAL fully covers the in-memory state.
  void maybe_snapshot() {
    if constexpr (storage::kHasSnapshot<P>) {
      if (engine_ && engine_->snapshot_due()) take_snapshot();
    }
  }

  /// Captures, persists and compacts: build the payload, write it through
  /// the engine (rotate -> tmp -> rename -> truncate), drop the protocol
  /// state below the new floor, and offer the fresh snapshot to peers.
  void take_snapshot() {
    if constexpr (storage::kHasSnapshot<P>) {
      if (!engine_) return;
      const std::int64_t t0 = obs::FlightRecorder::now_us();
      const std::vector<std::uint8_t> payload = build_snapshot_payload();
      snapshot_floor_ = proc_->applied_prefix();
      const std::uint64_t dropped = engine_->write_snapshot(payload);
      proc_->compact_to(static_cast<std::int32_t>(snapshot_floor_));
      durable_.compact(proc_->compact_floor());
      metrics_.counter("snapshot.written").add();
      metrics_.counter("snapshot.bytes").add(payload.size());
      metrics_.counter("snapshot.write_us")
          .add(static_cast<std::uint64_t>(obs::FlightRecorder::now_us() - t0));
      metrics_.counter("wal.truncated_records").add(dropped);
      announce_snapshot();
    }
  }

  [[nodiscard]] std::vector<std::uint8_t> build_snapshot_payload() {
    std::vector<std::uint8_t> blob;
    if constexpr (storage::kHasSnapshot<P>) blob = storage::Snapshotable<P>::capture(*proc_);
    return codec::to_bytes(SnapshotPayload{dedup_, blob});
  }

  /// Decodes and installs a payload (recovery and state transfer share
  /// this path) and raises snapshot_floor_ to the installed compaction
  /// floor.  Returns false — leaving the protocol untouched — on any
  /// framing/version error.  The dedup table is merged, never overwritten:
  /// local entries with newer request ids win.
  bool install_snapshot_payload(std::span<const std::uint8_t> payload) {
    if constexpr (!storage::kHasSnapshot<P>) {
      return false;
    } else {
      DedupTable dedup;
      std::vector<std::uint8_t> blob;
      if (!codec::from_bytes(payload, SnapshotPayload{dedup, blob})) return false;
      if (!storage::Snapshotable<P>::install(*proc_, blob)) return false;
      for (auto& [client_id, d] : dedup) {
        const auto it = dedup_.find(client_id);
        if (it == dedup_.end() || it->second.last_id < d.last_id) dedup_[client_id] = d;
      }
      snapshot_floor_ =
          std::max(snapshot_floor_, static_cast<std::int64_t>(proc_->compact_floor()));
      return true;
    }
  }

  /// Sends our current snapshot offer to one peer (on link establishment
  /// and after every new snapshot).  A peer whose applied prefix is below
  /// the floor cannot be healed by Decide anti-entropy — the slots below
  /// the floor no longer exist here — so it answers with a request.
  void offer_snapshot_to(consensus::ProcessId peer) {
    if constexpr (storage::kHasSnapshot<P>) {
      transport::PeerLink* link = link_to(peer);
      if (!engine_ || !engine_->snapshot() || !link) return;
      const codec::SnapshotOffer offer{
          snapshot_floor_, static_cast<std::int64_t>(engine_->snapshot()->payload.size())};
      link->send_frame(transport::FrameKind::kSnapshotOffer, codec::encode(offer));
      metrics_.counter("transfer.offers_sent").add();
    }
  }

  void announce_snapshot() {
    for (consensus::ProcessId p = 0; p < n_; ++p)
      if (p != self_) offer_snapshot_to(p);
  }

  void handle_snapshot_offer(consensus::ProcessId from, const codec::SnapshotOffer& offer) {
    if constexpr (storage::kHasSnapshot<P>) {
      if (offer.bytes <= 0) return;
      // Fetch only from a peer we can send requests to.  A replica that has
      // not learned a joiner's config yet has no link to it, and a transfer
      // pinned to the joiner would stall while ignoring every other offer.
      if (!link_to(from)) return;
      if (offer.floor <= proc_->applied_prefix()) return;  // we hold everything it summarizes
      if (transfer_) {
        if (offer.floor <= transfer_->floor) return;  // already fetching this or newer
        if (transfer_->retry_timer != 0) loop_.cancel_timer(transfer_->retry_timer);
        transfer_.reset();
      }
      transfer_.emplace();
      transfer_->floor = offer.floor;
      transfer_->total_bytes = offer.bytes;
      transfer_->from = from;
      transfer_->backoff.emplace(kTransferRetryMinUs, kTransferRetryMaxUs,
                                 util::splitmix64(static_cast<std::uint64_t>(offer.floor),
                                                  static_cast<std::uint64_t>(self_)));
      metrics_.counter("transfer.requests").add();
      send_snapshot_request(from, offer.floor, 0);
      arm_transfer_retry();
    }
  }

  void send_snapshot_request(consensus::ProcessId peer, std::int64_t floor,
                             std::int64_t offset) {
    if (transport::PeerLink* link = link_to(peer))
      link->send_frame(transport::FrameKind::kSnapshotRequest,
                       codec::encode(codec::SnapshotRequest{floor, offset}));
  }

  /// Serves a transfer: streams every chunk from the requested offset.
  /// Resumability lives on the requester side — it re-requests from the
  /// prefix it has — so the server can stay stateless.
  void handle_snapshot_request(consensus::ProcessId from, const codec::SnapshotRequest& req) {
    if constexpr (storage::kHasSnapshot<P>) {
      transport::PeerLink* link = link_to(from);
      if (!engine_ || !engine_->snapshot() || !link) return;
      if (req.floor != snapshot_floor_) {
        // Stale generation (we snapshotted again since the offer): answer
        // with the current offer so the laggard restarts against it.
        if (snapshot_floor_ > req.floor) offer_snapshot_to(from);
        return;
      }
      const std::vector<std::uint8_t>& payload = engine_->snapshot()->payload;
      if (req.offset < 0 || req.offset > static_cast<std::int64_t>(payload.size())) return;
      const auto crc = static_cast<std::int64_t>(storage::crc32(payload));
      for (std::size_t off = static_cast<std::size_t>(req.offset); off < payload.size();
           off += kSnapshotChunkBytes) {
        const std::size_t len = std::min(kSnapshotChunkBytes, payload.size() - off);
        codec::SnapshotChunk chunk;
        chunk.floor = snapshot_floor_;
        chunk.offset = static_cast<std::int64_t>(off);
        chunk.total_bytes = static_cast<std::int64_t>(payload.size());
        chunk.crc = crc;
        chunk.data.assign(payload.begin() + static_cast<std::ptrdiff_t>(off),
                          payload.begin() + static_cast<std::ptrdiff_t>(off + len));
        link->send_frame(transport::FrameKind::kSnapshotChunk, codec::encode(chunk));
        metrics_.counter("transfer.chunks_sent").add();
        metrics_.counter("transfer.bytes_sent").add(len);
      }
    }
  }

  void handle_snapshot_chunk(codec::SnapshotChunk&& chunk) {
    if constexpr (storage::kHasSnapshot<P>) {
      if (!transfer_ || chunk.floor != transfer_->floor ||
          chunk.total_bytes != transfer_->total_bytes)
        return;
      metrics_.counter("transfer.chunks_received").add();
      // Out-of-order chunk (a loss upstream): drop it; the retry timer
      // re-requests from the contiguous prefix we actually hold.
      if (chunk.offset != static_cast<std::int64_t>(transfer_->buf.size())) return;
      transfer_->buf.insert(transfer_->buf.end(), chunk.data.begin(), chunk.data.end());
      if (static_cast<std::int64_t>(transfer_->buf.size()) < transfer_->total_bytes) return;

      if (storage::crc32(transfer_->buf) != static_cast<std::uint32_t>(chunk.crc)) {
        metrics_.counter("transfer.crc_mismatch").add();
        transfer_->buf.clear();
        send_snapshot_request(transfer_->from, transfer_->floor, 0);
        return;
      }
      std::vector<std::uint8_t> payload = std::move(transfer_->buf);
      if (transfer_->retry_timer != 0) loop_.cancel_timer(transfer_->retry_timer);
      transfer_.reset();

      const std::int64_t t0 = obs::FlightRecorder::now_us();
      // An entry like any other: the traffic the install provokes waits for
      // the barrier that persists the restored promises.
      bool installed = false;
      with_wal({}, [&] { installed = install_snapshot_payload(payload); });
      if (!installed) {
        metrics_.counter("transfer.install_failed").add();
        return;
      }
      // Re-snapshotting our post-install state also compacts and re-offers
      // in one step.
      take_snapshot();
      metrics_.counter("transfer.installed").add();
      metrics_.counter("transfer.install_us")
          .add(static_cast<std::uint64_t>(obs::FlightRecorder::now_us() - t0));
    }
  }

  void arm_transfer_retry() {
    if constexpr (storage::kHasSnapshot<P>) {
      if (!transfer_) return;
      const std::int64_t delay =
          transfer_->backoff ? transfer_->backoff->next() : kTransferRetryMinUs;
      transfer_->retry_timer = loop_.schedule_after(delay, [this] {
        if (!transfer_) return;
        transfer_->retry_timer = 0;
        metrics_.counter("transfer.retries").add();
        send_snapshot_request(transfer_->from, transfer_->floor,
                              static_cast<std::int64_t>(transfer_->buf.size()));
        arm_transfer_retry();
      });
    }
  }

  /// Recomputes the number of distinct peers with a Hello-identified
  /// inbound connection.  Loop-thread only; the atomic is for readers.
  void refresh_inbound_count() {
    std::unordered_set<consensus::ProcessId> peers;
    for (const auto& [conn, peer] : inbound_peer_) peers.insert(peer);
    inbound_count_.store(static_cast<int>(peers.size()), std::memory_order_relaxed);
    links_changed();
  }

  /// Wakes await_links_change: connected_out() or connected_in() may have
  /// moved.  Loop thread; on connection events only, never per frame.
  void links_changed() {
    {
      const std::lock_guard<std::mutex> lock(links_mu_);
      links_version_.fetch_add(1);
    }
    links_cv_.notify_all();
  }

  /// One machine-readable status document (schema twostep-stats/1): node
  /// identity, live connectivity, the raw transport counters and the full
  /// metrics registry (counters + histogram quantiles).  Built on the loop
  /// thread, for kStatsRequest scrapes.
  [[nodiscard]] std::string build_stats_json() {
    std::ostringstream os;
    std::int32_t config_version = 0;
    if constexpr (Reconfigurable<P>) config_version = proc_->config_version();
    os << "{\"schema\":\"twostep-stats/1\",\"node\":" << self_
       << ",\"now_us\":" << loop_.now_us() << ",\"connected_out\":" << connected_out()
       << ",\"connected_in\":" << connected_in()
       << ",\"leader\":" << leader_.load(std::memory_order_relaxed)
       << ",\"config_version\":" << config_version
       << ",\"transport\":{\"bytes_sent\":" << stats_.bytes_sent.load(std::memory_order_relaxed)
       << ",\"bytes_received\":" << stats_.bytes_received.load(std::memory_order_relaxed)
       << ",\"frames_sent\":" << stats_.frames_sent.load(std::memory_order_relaxed)
       << ",\"frames_received\":" << stats_.frames_received.load(std::memory_order_relaxed)
       << ",\"reconnects\":" << stats_.reconnects.load(std::memory_order_relaxed)
       << ",\"frames_dropped\":" << stats_.frames_dropped.load(std::memory_order_relaxed)
       << "},\"metrics\":";
    metrics_.write_json(os);
    os << "}";
    return os.str();
  }

  void export_transport_metrics() {
    metrics_.counter("transport.bytes_sent").add(stats_.bytes_sent.load());
    metrics_.counter("transport.bytes_received").add(stats_.bytes_received.load());
    metrics_.counter("transport.frames_sent").add(stats_.frames_sent.load());
    metrics_.counter("transport.frames_received").add(stats_.frames_received.load());
    metrics_.counter("transport.reconnects").add(stats_.reconnects.load());
    metrics_.counter("transport.frames_dropped").add(stats_.frames_dropped.load());
    metrics_.counter("transport.connect_timeouts").add(stats_.connect_timeouts.load());
    metrics_.counter("transport.chaos_dropped").add(stats_.chaos_dropped.load());
    metrics_.counter("transport.chaos_duplicated").add(stats_.chaos_duplicated.load());
    metrics_.counter("transport.chaos_delayed").add(stats_.chaos_delayed.load());
    if (wal_) {
      metrics_.counter("wal.appends").add(wal_->appends());
      metrics_.counter("wal.syncs").add(wal_->syncs());
    }
  }

  consensus::ProcessId self_;
  int n_;
  transport::Endpoint listen_ep_;
  RuntimeOptions options_;
  transport::EventLoop loop_;
  LiveEnv env_;
  transport::TransportStats stats_;
  obs::MetricsRegistry metrics_;
  obs::LogHistogram* serve_us_ = nullptr;        ///< client request -> reply latency
  obs::LogHistogram* deliver_us_ = nullptr;      ///< per-message protocol dispatch time
  obs::LogHistogram* wal_sync_us_ = nullptr;     ///< fsync per WAL barrier
  obs::LogHistogram* request_hop_us_ = nullptr;  ///< client -> node wire hop
  obs::FlightRecorder* flight_ = nullptr;        ///< null = tracing off
  obs::TraceContext out_ctx_;  ///< context of the entry scope running (loop thread)

  int listen_fd_ = -1;
  std::vector<transport::Endpoint> peers_;
  /// Guards the loop thread's writes to links_ against connected_out()
  /// on other threads (the loop thread reads links_ without it), and
  /// links_version_ for links_cv_.
  mutable std::mutex links_mu_;
  std::vector<std::unique_ptr<transport::PeerLink>> links_;
  std::atomic<std::uint64_t> links_version_{0};  ///< see links_version()
  mutable std::condition_variable links_cv_;
  std::unordered_set<std::shared_ptr<transport::Connection>> inbound_;
  std::unordered_map<transport::Connection*, consensus::ProcessId> inbound_peer_;
  std::unordered_set<consensus::ProcessId> catchup_unanswered_;  ///< Hello, no Catchup yet

  std::unique_ptr<P> proc_;
  bool proto_started_ = false;
  bool proposed_ = false;
  std::unordered_map<std::uint64_t, std::uint64_t> env_timers_;  ///< env id -> loop id
  std::uint64_t next_env_timer_ = 1;

  std::vector<OutstandingRequest> outstanding_;                      ///< single-shot
  std::unordered_map<std::int64_t, OutstandingRequest> outstanding_rsm_;  ///< cmd -> client
  DedupTable dedup_;  ///< client_id -> idempotency record

  // --- durability + chaos (loop-thread only, except the atomic) ---
  std::optional<storage::Engine> engine_;  ///< WAL + snapshot store (storage on)
  storage::Wal* wal_ = nullptr;            ///< engine_->wal(); null = storage off
  std::int64_t snapshot_floor_ = 0;        ///< floor of the durable snapshot, if any

  /// In-progress inbound snapshot transfer (at most one; newest floor wins).
  struct TransferState {
    std::int64_t floor = 0;
    std::int64_t total_bytes = 0;
    consensus::ProcessId from = -1;
    std::vector<std::uint8_t> buf;  ///< contiguous prefix received so far
    std::uint64_t retry_timer = 0;  ///< pending re-request timer (0 = none)
    std::optional<util::Backoff> backoff;  ///< jittered re-request cadence
  };
  std::optional<TransferState> transfer_;
  std::conditional_t<storage::kHasDurable<P>, storage::Durable<P>, storage::NullDurable> durable_;
  std::optional<transport::ChaosInjector> chaos_;
  bool entry_active_ = false;            ///< inside with_wal: sends are held
  std::vector<HeldSend> held_sends_;     ///< messages awaiting the barrier
  std::vector<HeldReply> held_replies_;  ///< acks awaiting the barrier
  std::uint64_t barrier_timer_ = 0;      ///< pending barrier timer (0 = none)
  obs::Counter* barriers_ = nullptr;     ///< wal.barriers (storage on)
  obs::LogHistogram* barrier_records_ = nullptr;  ///< records per barrier (group commit)
  std::atomic<int> inbound_count_{0};

  // --- membership & failover (loop thread, except the noted snapshots) ---
  std::map<consensus::ProcessId, transport::Endpoint> learned_endpoints_;  ///< from config log
  std::unordered_set<consensus::ProcessId> removed_;  ///< treat-as-crashed members
  std::optional<omega::Detector> detector_;  ///< engaged iff failover.enabled
  std::atomic<consensus::ProcessId> leader_{0};  ///< elected leader (cross-thread)

  mutable std::mutex state_mu_;
  consensus::Value decided_;
  std::vector<std::pair<std::int32_t, std::int64_t>> applied_;
  std::vector<consensus::ProcessId> members_;  ///< applied config members (state_mu_)
  std::int32_t config_version_ = 0;            ///< applied config version (state_mu_)

  std::thread thread_;
};

}  // namespace twostep::node
