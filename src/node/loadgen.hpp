// Open-loop multi-session workload generator for the live node runtime.
//
// The closed-loop ClientSession measures *latency*: it issues the next
// command only after the previous one committed, so its throughput is
// 1/RTT by construction and says nothing about capacity.  Saturation needs
// the opposite discipline — an OPEN loop, where commands arrive on a clock
// that does not care whether the cluster has answered yet.  This generator
// drives hundreds to thousands of logical sessions over a handful of
// shared TCP connections, all multiplexed on one transport::EventLoop:
//
//   - arrivals follow a target rate (deterministic spacing or a seeded
//     Poisson process) and are assigned to sessions round-robin,
//   - each session is pinned to one connection and stamps dedup-safe ids:
//     request id (session << 32 | seq) and payload (session << 28 | seq),
//     both strictly increasing per session, so server-side ClientDedup and
//     the chaossoak-style audit invariants keep working under concurrency,
//   - a reply is matched to its request by id; the recorded RTT always
//     spans from the ORIGINAL issue instant, including any reconnect and
//     resend in between (the same discipline ClientSession::call uses),
//   - when a connection dies the generator redials it with backoff and
//     resends every in-flight request pinned to it, under the original
//     ids and the original start timestamps.
//
// The result reports offered vs achieved command rates and the RTT
// distribution — one point on the saturation curve bench_n3_saturation
// sweeps.  Payloads stay below 2^39 so the generator composes with RSM
// batching (which reserves payload bit 39 for batch handles); that caps
// sessions at 2^11 - 1 = 2047.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "codec/codec.hpp"
#include "obs/histogram.hpp"
#include "transport/event_loop.hpp"
#include "transport/tcp.hpp"
#include "util/rng.hpp"

namespace twostep::node {

struct LoadgenOptions {
  std::int64_t rate = 1'000;        ///< offered commands/s across all sessions
  int sessions = 64;                ///< logical dedup sessions (max 2047)
  int connections = 4;              ///< TCP connections the sessions share
  std::int64_t duration_ms = 5'000; ///< offered-load window
  std::int64_t drain_ms = 2'000;    ///< grace to collect in-flight replies after the window
  bool poisson = true;              ///< exponential inter-arrivals; false = fixed spacing
  bool spread = false;              ///< round-robin connections over all servers (default: all to servers[0])
  std::uint64_t seed = 1;           ///< arrival process + backoff jitter
  std::int64_t reconnect_backoff_ms = 50;  ///< redial delay after a connection dies
};

/// One run's outcome.  `ok` counts every answered-ok command including the
/// drain; `ok_in_window` only those answered inside the offered-load
/// window, which is what the achieved rate is computed from (a saturated
/// cluster answers late, and late answers must not flatter the curve).
struct LoadResult {
  std::int64_t offered = 0;
  std::int64_t ok = 0;
  std::int64_t ok_in_window = 0;
  std::int64_t rejected = 0;
  std::int64_t lost = 0;        ///< unanswered when the drain expired
  std::int64_t resends = 0;     ///< in-flight requests replayed after a reconnect
  std::int64_t reconnects = 0;
  std::int64_t window_us = 0;   ///< actual offered-load window duration
  obs::HistogramSnapshot rtt;   ///< answered commands, original-issue to reply

  [[nodiscard]] double offered_rate() const {
    return window_us > 0 ? offered * 1e6 / static_cast<double>(window_us) : 0.0;
  }
  [[nodiscard]] double achieved_rate() const {
    return window_us > 0 ? ok_in_window * 1e6 / static_cast<double>(window_us) : 0.0;
  }

  /// Everything above as one JSON object (schema-free; the bench wraps it).
  [[nodiscard]] std::string to_json() const;
};

/// Blocking open-loop generator.  run() owns the calling thread for
/// duration + drain; the event loop, connections and all state live on
/// that thread.  Intended against a local or loopback cluster — the
/// reconnect path uses short blocking dials.
class OpenLoopLoadgen {
 public:
  OpenLoopLoadgen(std::vector<transport::Endpoint> servers, LoadgenOptions options);

  /// Runs the workload to completion and returns the curve point.
  LoadResult run();

  /// Whether this generator issued `payload` (validity audit input):
  /// session i issues payloads (i << 28 | seq) for seq = 0, 1, ...
  [[nodiscard]] bool issued(std::int64_t payload) const noexcept {
    const std::int64_t session = payload >> 28;
    return payload >= 0 && session < static_cast<std::int64_t>(issued_per_session_.size()) &&
           (payload & ((std::int64_t{1} << 28) - 1)) <
               issued_per_session_[static_cast<std::size_t>(session)];
  }
  /// Payloads of every ok-answered command (durability audit input).
  [[nodiscard]] const std::vector<std::int64_t>& acked_payloads() const noexcept {
    return acked_payloads_;
  }

  static constexpr int kMaxSessions = 2047;  ///< payload bit budget, see header comment

 private:
  struct Pending {
    int session = 0;
    std::int64_t payload = 0;
    std::int64_t start_us = 0;  ///< due instant; resends do not reset it
  };

  void issue_due_arrivals();
  void arm_pump();
  void issue_one();
  void send_request(int session, std::int64_t id, const Pending& p);
  void on_reply(const codec::ClientReply& reply);
  void on_conn_closed(int conn_idx);
  void redial(int conn_idx);
  [[nodiscard]] double next_gap_us();
  void finish_if_drained();

  std::vector<transport::Endpoint> servers_;
  LoadgenOptions options_;
  transport::EventLoop loop_;
  transport::TransportStats stats_;
  std::vector<std::shared_ptr<transport::Connection>> conns_;
  std::vector<std::int64_t> client_ids_;  ///< per-session dedup id
  std::vector<std::int64_t> issued_per_session_;
  std::vector<std::int64_t> acked_payloads_;
  std::unordered_map<std::int64_t, Pending> inflight_;  ///< request id -> pending
  obs::LogHistogram rtt_;
  util::Rng rng_;
  LoadResult result_;
  std::int64_t window_start_us_ = 0;
  std::int64_t window_end_us_ = 0;  ///< set once offering stops
  double next_arrival_us_ = 0;      ///< fractional so high rates do not quantize
  int next_session_ = 0;
  bool offering_ = true;
  bool done_ = false;
};

}  // namespace twostep::node
