// Framed non-blocking TCP on top of the EventLoop.
//
// Three pieces:
//   - free helpers to bind a listener, start a non-blocking connect, and
//     dial and write a blocking client socket,
//   - Connection: one established socket speaking the wire.hpp framing,
//     with buffered non-blocking writes (EPOLLOUT armed only while a
//     backlog exists) and incremental reads through a FrameParser,
//   - PeerLink: the replica-to-replica edge.  It owns the *outbound*
//     connection to one peer, redialling forever with exponential backoff
//     (10 ms doubling to 1 s) and queueing a bounded number of frames
//     while disconnected.  Inbound connections from peers are accepted
//     separately by the node runtime and used only for receiving, so each
//     ordered stream has exactly one writer.
//
// Everything here is loop-thread-only except TransportStats, whose relaxed
// atomics may be read from any thread (the CLI prints them live).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "consensus/types.hpp"
#include "obs/histogram.hpp"
#include "transport/chaos.hpp"
#include "transport/event_loop.hpp"
#include "transport/wire.hpp"
#include "util/rng.hpp"

namespace twostep::transport {

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const { return host + ":" + std::to_string(port); }
};

/// Binds a non-blocking listening socket (SO_REUSEADDR, backlog 128).
/// Port 0 picks an ephemeral port; the actual port is written back into
/// `ep.port`.  Throws std::system_error on failure.
int bind_listener(Endpoint& ep);

/// Starts a non-blocking connect to `ep`.  Returns the fd; the connection
/// is usually still in progress (EINPROGRESS) — wait for EPOLLOUT and check
/// SO_ERROR.  Throws std::system_error only on immediate local failure.
int dial_nonblocking(const Endpoint& ep);

/// Connects a blocking socket to `ep`, giving up at `deadline`: a
/// nonblocking connect polled for writability, then switched to blocking
/// mode, with TCP_NODELAY set.  A target that drops SYNs (full accept
/// queue, blackhole) fails at the deadline instead of parking the caller
/// in ::connect.  Returns the fd, or -1 with errno set (EINVAL for a bad
/// address, ETIMEDOUT at the deadline, the connect error otherwise).
int dial_blocking(const Endpoint& ep, std::chrono::steady_clock::time_point deadline);

/// Writes all of `bytes` to the blocking socket `fd` (MSG_NOSIGNAL,
/// retrying on EINTR).  False once the connection fails.
bool send_all(int fd, std::span<const std::uint8_t> bytes);

/// Relaxed-atomic transport counters, safe to read from any thread.
struct TransportStats {
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> reconnects{0};
  std::atomic<std::uint64_t> frames_dropped{0};  ///< overflow of a disconnected PeerLink queue
  std::atomic<std::uint64_t> connect_timeouts{0};  ///< dial attempts cut off by the timer
  std::atomic<std::uint64_t> chaos_dropped{0};     ///< frames eaten by the ChaosInjector
  std::atomic<std::uint64_t> chaos_duplicated{0};  ///< extra copies it sent
  std::atomic<std::uint64_t> chaos_delayed{0};     ///< frames it parked on a timer

  /// Optional occupancy probes (see obs/histogram.hpp; install before the
  /// loop runs, null = off).  Every queued frame samples the connection's
  /// unsent write-buffer bytes / the PeerLink's disconnected-queue depth,
  /// so a scrape can see backpressure building, not just throughput.
  obs::LogHistogram* outbox_bytes = nullptr;
  obs::LogHistogram* pending_frames = nullptr;
};

/// One established socket speaking the framed protocol.  Loop-thread only.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  using FrameHandler = std::function<void(Frame&&)>;
  using CloseHandler = std::function<void()>;

  Connection(EventLoop& loop, int fd, TransportStats* stats);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Registers with the loop and starts dispatching.  `on_frame` fires per
  /// complete frame; `on_close` fires exactly once, on EOF, I/O error, or
  /// framing violation (not on an explicit local close()).
  void start(FrameHandler on_frame, CloseHandler on_close);

  /// Queues one frame into the chunked outbox.  The actual write is
  /// deferred to the end of the current loop round, so every frame queued
  /// during one dispatch round leaves in a single vectored flush
  /// (sendmsg over the chunk list) instead of one send() per frame.
  /// Encoding appends straight into the tail chunk — no per-frame buffer
  /// allocation on the steady-state path.  No-op after close.
  void send_frame(FrameKind kind, std::span<const std::uint8_t> payload);

  /// Deregisters and closes the socket.  Does NOT invoke on_close.
  void close();

  [[nodiscard]] bool closed() const noexcept { return fd_ < 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// Bytes queued but not yet written to the socket.
  [[nodiscard]] std::size_t unsent_bytes() const noexcept { return unsent_bytes_; }

  /// Chunk granularity of the outbox: frames pack back-to-back into a
  /// chunk until it reaches this size, then a new chunk starts.
  static constexpr std::size_t kChunkTarget = 64 * 1024;

 private:
  void handle_events(std::uint32_t events);
  void handle_readable();
  /// Writes the backlog (vectored); returns false if the connection died.
  bool flush();
  /// Arms a round-end flush if one is not already scheduled.
  void schedule_flush();
  void update_interest();
  void fail();  ///< close + fire on_close once

  EventLoop& loop_;
  int fd_;
  TransportStats* stats_;
  FrameHandler on_frame_;
  CloseHandler on_close_;
  FrameParser parser_;
  std::deque<std::vector<std::uint8_t>> outbox_;  ///< unsent chunks, frames packed
  std::size_t head_sent_ = 0;         ///< bytes of outbox_.front() already written
  std::size_t unsent_bytes_ = 0;      ///< total queued bytes not yet written
  std::vector<std::uint8_t> spare_;   ///< recycled chunk (steady-state: no alloc)
  bool flush_scheduled_ = false;      ///< round-end flush pending
  bool want_write_ = false;           ///< EPOLLOUT currently armed
};

/// Self-healing outbound link to one peer replica.  Loop-thread only.
class PeerLink {
 public:
  /// `self` is announced in the Hello frame after every (re)connect.
  PeerLink(EventLoop& loop, consensus::ProcessId self, consensus::ProcessId peer,
           Endpoint target, TransportStats* stats);

  /// Starts the first connection attempt.
  void start();

  /// Installs the chaos stage consulted by send_frame (null to disable).
  /// The injector must outlive the link.  Hello frames are not affected:
  /// they are sent by the link itself, below this entry point.
  void set_chaos(ChaosInjector* chaos) noexcept { chaos_ = chaos; }

  /// Invoked on the loop thread each time the outbound connection
  /// (re)establishes, after the queued frames have been flushed.  The
  /// disconnected-side queue is bounded, so anything broadcast during a
  /// long outage may be gone — this hook is where the owner resends state
  /// the peer must not miss (the runtime's Decide anti-entropy).
  void set_on_connected(std::function<void()> on_connected) {
    on_connected_ = std::move(on_connected);
  }

  /// Sends when connected; otherwise queues up to kMaxPending frames
  /// (oldest dropped first — consensus protocols tolerate loss, and
  /// retransmission is the ballot timer's job, not the transport's).
  /// With a ChaosInjector installed the frame may instead be dropped,
  /// duplicated, or parked on a timer before entering that pipeline.
  void send_frame(FrameKind kind, std::vector<std::uint8_t> payload);

  /// Stops reconnecting and closes any live connection.
  void shutdown();

  /// Dials now if the link is down between attempts, instead of waiting
  /// out a backoff that a long outage has pushed to its 1 s cap.  The
  /// owner calls it on evidence that the peer is back (its inbound Hello).
  void redial_now();

  /// Whether the outbound connection is currently established.  The only
  /// PeerLink member safe to read off the loop thread (relaxed atomic) —
  /// tests and the CLI use it to wait for the mesh to form.
  [[nodiscard]] bool connected() const noexcept { return up_.load(std::memory_order_relaxed); }
  [[nodiscard]] consensus::ProcessId peer() const noexcept { return peer_; }

  static constexpr std::size_t kMaxPending = 1024;
  static constexpr std::int64_t kBackoffMinUs = 10'000;     ///< 10 ms
  static constexpr std::int64_t kBackoffMaxUs = 1'000'000;  ///< 1 s
  static constexpr std::int64_t kConnectTimeoutUs = 1'000'000;  ///< per dial attempt

 private:
  void attempt_connect();
  void on_dial_result(int fd, std::uint32_t events);
  void on_dial_timeout();
  void established(int fd);
  void schedule_retry();
  void cancel_connect_timer();
  /// The post-chaos pipeline: send on the live connection or queue.
  void enqueue_frame(FrameKind kind, std::vector<std::uint8_t> payload);

  EventLoop& loop_;
  consensus::ProcessId self_;
  consensus::ProcessId peer_;
  Endpoint target_;
  TransportStats* stats_;
  ChaosInjector* chaos_ = nullptr;
  std::shared_ptr<Connection> conn_;
  std::deque<std::pair<FrameKind, std::vector<std::uint8_t>>> pending_;
  std::int64_t backoff_us_ = kBackoffMinUs;
  int dial_fd_ = -1;        ///< connect in progress
  std::uint64_t retry_timer_ = 0;
  std::uint64_t connect_timer_ = 0;  ///< per-attempt dial timeout
  util::Rng rng_;  ///< backoff jitter; seeded from (self, peer)
  std::function<void()> on_connected_;
  std::atomic<bool> up_{false};
  bool stopped_ = false;
  bool ever_connected_ = false;
};

}  // namespace twostep::transport
