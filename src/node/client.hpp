// Blocking client session for the live node runtime.
//
// A deliberately simple counterpart to the server side: one blocking TCP
// socket to the client's current *proxy* replica, a synchronous
// request/reply call, and a closed-loop workload driver that issues the
// next command only after the previous one committed — the shape under
// which the paper's two-step bound translates directly into
// client-observed latency.
//
// Failover: the session can be given the full replica list.  When the
// current proxy stops answering (connection loss, or a per-attempt reply
// timeout), the client redials the next replica — cycling with capped
// exponential backoff and seeded jitter — and resends the in-flight
// request under the same (client_id, request_id).  The server keeps a
// per-client dedup table, so a retry of an already-committed command is
// answered from cache rather than executed again; across a *proxy crash*
// the table is volatile and semantics degrade to at-least-once (see
// Runtime::ClientDedup).  Per-request RTTs land in an obs::MetricsRegistry
// histogram ("client.rtt_us") next to counters for requests, replies and
// the three failure modes (client.timeouts / client.conn_lost /
// client.failovers).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "obs/flight.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "transport/tcp.hpp"
#include "transport/wire.hpp"
#include "util/backoff.hpp"

namespace twostep::node {

struct ClientOptions {
  std::int64_t connect_timeout_ms = 5'000;  ///< total dial budget incl. retries
  /// Total per-call budget, across every failover attempt.
  std::int64_t request_timeout_ms = 10'000;
  /// How long one proxy gets to answer before the client fails over to the
  /// next replica and resends.  Clamped to the overall request timeout.
  std::int64_t attempt_timeout_ms = 1'000;
  std::int64_t backoff_min_ms = 10;   ///< redial backoff after a full cycle fails
  std::int64_t backoff_max_ms = 500;  ///< exponential cap
  /// Dedup session id sent with every request; 0 auto-generates a
  /// process-unique id.  Requests from the same session under the same
  /// request id are idempotent at any single server.
  std::int64_t client_id = 0;
  std::uint64_t seed = 1;  ///< backoff jitter stream (mixed with client_id)
  /// Span sink enabling wire-propagated tracing: every call() stamps a
  /// fresh trace id + origin timestamp into the request and records a root
  /// "client.call" span, so the servers' spans hang off this session's.
  /// Null (the default) sends untraced requests.  Must outlive the session.
  obs::FlightRecorder* flight = nullptr;
};

class ClientSession {
 public:
  using Options = ClientOptions;

  /// Failover client over the full replica list; starts at `servers[0]`.
  /// `metrics` may be null (no recording).  Does not connect yet.
  ClientSession(std::vector<transport::Endpoint> servers, obs::MetricsRegistry* metrics,
                Options options = {});

  /// Single-replica session (no failover targets) — the pre-failover shape,
  /// kept for callers that pin a proxy deliberately.
  ClientSession(transport::Endpoint server, obs::MetricsRegistry* metrics,
                Options options = {});

  ~ClientSession();
  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  /// Dials the cluster (current endpoint first, then cycling), retrying
  /// with backoff until the connect timeout.  False on failure.
  bool connect();

  /// Sends one request and blocks for the matching reply, failing over
  /// between replicas as needed.  nullopt once the whole request budget is
  /// exhausted; the session survives and the next call may reconnect.
  std::optional<codec::ClientReply> call(std::int64_t payload);

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  /// The dedup session id in use (auto-generated when options.client_id == 0).
  [[nodiscard]] std::int64_t client_id() const noexcept { return client_id_; }
  /// Index into the server list the session currently targets.
  [[nodiscard]] std::size_t current_server() const noexcept { return current_; }

  struct WorkloadResult {
    std::int64_t ok = 0;
    std::int64_t rejected = 0;   ///< replies with ok == false
    std::int64_t lost = 0;       ///< calls that exhausted the full request budget
    std::int64_t timeouts = 0;   ///< per-attempt reply timeouts (incl. the final one)
    std::int64_t conn_lost = 0;  ///< sockets that died under an in-flight request
    std::int64_t failovers = 0;  ///< times the session switched replica
    /// RTT distribution of this window's answered calls (count/mean/min/
    /// max and p50..p999), from the session's log-bucketed histogram.
    obs::HistogramSnapshot rtt;
    std::vector<std::int64_t> acked;  ///< payloads of the ok-answered calls

    /// One machine-readable line: the counters plus the rtt quantiles.
    [[nodiscard]] std::string to_json() const;
  };

  /// Closed-loop driver: `count` sequential calls; `payload_of(i)` supplies
  /// the i-th command (defaults to the identity).  Stops early only when
  /// the cluster is unreachable (a call failed and reconnection failed).
  WorkloadResult run_closed_loop(std::int64_t count,
                                 const std::function<std::int64_t(std::int64_t)>& payload_of = {});

 private:
  void close();
  [[nodiscard]] std::int64_t now_us() const;
  /// Dial of servers_[current_] that gives up at `deadline`; true on success.
  bool dial_current(std::int64_t deadline);
  /// Cycles endpoints with backoff+jitter until connected or `deadline`.
  bool reconnect(std::int64_t deadline);
  /// Closes the socket and advances to the next replica, counting the
  /// failover.  (No-op advance with a single server — it still re-dials.)
  void fail_over();
  void count(const char* name, std::int64_t& local);

  enum class Wait { kGot, kConnLost, kTimeout };
  Wait await_reply(std::int64_t id, std::int64_t deadline, codec::ClientReply& out);

  std::vector<transport::Endpoint> servers_;
  std::size_t current_ = 0;
  Options options_;
  obs::MetricsRegistry* metrics_;
  obs::LogHistogram* rtt_us_ = nullptr;           ///< all answered calls
  obs::LogHistogram* failover_rtt_us_ = nullptr;  ///< calls that failed over mid-flight
  obs::LogHistogram window_rtt_;  ///< reset per run_closed_loop window
  int fd_ = -1;
  transport::FrameParser parser_;
  std::int64_t next_id_ = 1;
  std::int64_t client_id_ = 0;
  /// Redial cadence after a full cluster pass fails: jittered exponential
  /// (util::Backoff, shared with the runtime's transfer-retry loop), reset
  /// to the minimum by every successful dial.
  util::Backoff redial_backoff_;
  std::int64_t timeouts_ = 0;
  std::int64_t conn_lost_ = 0;
  std::int64_t failovers_ = 0;
};

}  // namespace twostep::node
