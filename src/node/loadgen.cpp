#include "node/loadgen.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace twostep::node {

namespace {

/// Dial budgets.  The first dial runs before the loop starts; a redial
/// runs on the loop thread, where a stalled connect would freeze the
/// arrivals and replies of every other connection, so it gets a short one
/// and retries after the reconnect backoff instead.
constexpr std::chrono::milliseconds kDialTimeout{5'000};
constexpr std::chrono::milliseconds kRedialTimeout{20};

std::int64_t wall_salt() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

OpenLoopLoadgen::OpenLoopLoadgen(std::vector<transport::Endpoint> servers,
                                 LoadgenOptions options)
    : servers_(std::move(servers)),
      options_(options),
      rng_(util::splitmix64(options.seed, 0x10adULL)) {
  if (servers_.empty()) throw std::invalid_argument("loadgen: no servers");
  if (options_.sessions < 1 || options_.sessions > kMaxSessions)
    throw std::invalid_argument("loadgen: sessions must be in [1, 2047]");
  if (options_.connections < 1) throw std::invalid_argument("loadgen: connections must be >= 1");
  if (options_.rate < 1) throw std::invalid_argument("loadgen: rate must be >= 1");
  options_.connections = std::min(options_.connections, options_.sessions);
  // Process-unique positive dedup ids: clock + pid salt mixed per session,
  // so concurrent loadgens against one cluster never collide.
  const auto base = static_cast<std::uint64_t>(wall_salt()) ^
                    (static_cast<std::uint64_t>(::getpid()) << 40);
  client_ids_.resize(static_cast<std::size_t>(options_.sessions));
  for (int s = 0; s < options_.sessions; ++s) {
    const auto id = static_cast<std::int64_t>(
        util::splitmix64(base, static_cast<std::uint64_t>(s)) >> 1);
    client_ids_[static_cast<std::size_t>(s)] = id == 0 ? 1 : id;
  }
  issued_per_session_.assign(static_cast<std::size_t>(options_.sessions), 0);
}

double OpenLoopLoadgen::next_gap_us() {
  const double mean_us = 1e6 / static_cast<double>(options_.rate);
  if (!options_.poisson) return mean_us;
  // Exponential inter-arrival; clamp u away from 0 so log() stays finite.
  const double u = std::max(rng_.next_double(), 1e-12);
  return -std::log(u) * mean_us;
}

void OpenLoopLoadgen::send_request(int session, std::int64_t id, const Pending& p) {
  auto& conn = conns_[static_cast<std::size_t>(session % options_.connections)];
  if (!conn || conn->closed()) return;  // redial in progress; resent on reconnect
  conn->send_frame(transport::FrameKind::kClientRequest,
                   codec::encode(codec::ClientRequest{
                       id, p.payload, client_ids_[static_cast<std::size_t>(session)], {}}));
}

void OpenLoopLoadgen::issue_one() {
  const int session = next_session_;
  next_session_ = (next_session_ + 1) % options_.sessions;
  const std::int64_t seq = issued_per_session_[static_cast<std::size_t>(session)]++;
  const std::int64_t id = (static_cast<std::int64_t>(session) << 32) | seq;
  // Timed from the due instant, not the send: a pump that wakes late (a
  // busy loop runs its timers late) must not hide that wait from the RTT.  Called before next_arrival_us_ advances past this arrival.
  Pending p{session, (static_cast<std::int64_t>(session) << 28) | seq,
            static_cast<std::int64_t>(next_arrival_us_)};
  send_request(session, id, p);
  inflight_.emplace(id, p);
  ++result_.offered;
}

void OpenLoopLoadgen::issue_due_arrivals() {
  if (!offering_) return;
  const std::int64_t now = loop_.now_us();
  // Cap the per-round burst so a stall never freezes the loop catching up;
  // the remainder goes out next round (the open-loop debt is preserved).
  int burst = 0;
  while (offering_ && next_arrival_us_ <= static_cast<double>(now) && burst < 4096) {
    issue_one();
    next_arrival_us_ += next_gap_us();
    ++burst;
  }
  arm_pump();
}

void OpenLoopLoadgen::arm_pump() {
  if (!offering_) return;
  const auto now = static_cast<double>(loop_.now_us());
  const double delay = std::max(0.0, next_arrival_us_ - now);
  loop_.schedule_after(static_cast<std::int64_t>(delay), [this] { issue_due_arrivals(); });
}

void OpenLoopLoadgen::on_reply(const codec::ClientReply& reply) {
  const auto it = inflight_.find(reply.id);
  if (it == inflight_.end()) return;  // duplicate (dedup cache answered a resend twice)
  rtt_.record(loop_.now_us() - it->second.start_us);
  if (reply.ok) {
    ++result_.ok;
    if (offering_) ++result_.ok_in_window;
    acked_payloads_.push_back(it->second.payload);
  } else {
    ++result_.rejected;
  }
  inflight_.erase(it);
  finish_if_drained();
}

void OpenLoopLoadgen::finish_if_drained() {
  if (offering_ || done_ || !inflight_.empty()) return;
  done_ = true;
  loop_.request_stop();
}

void OpenLoopLoadgen::on_conn_closed(int conn_idx) {
  ++result_.reconnects;
  conns_[static_cast<std::size_t>(conn_idx)].reset();
  const std::int64_t backoff_us = options_.reconnect_backoff_ms * 1000;
  const auto jitter =
      static_cast<std::int64_t>(rng_.next_below(static_cast<std::uint64_t>(backoff_us / 2 + 1)));
  loop_.schedule_after(backoff_us + jitter, [this, conn_idx] { redial(conn_idx); });
}

void OpenLoopLoadgen::redial(int conn_idx) {
  const transport::Endpoint& ep =
      options_.spread ? servers_[static_cast<std::size_t>(conn_idx) % servers_.size()]
                      : servers_.front();
  const int fd = transport::dial_blocking(ep, std::chrono::steady_clock::now() + kRedialTimeout);
  if (fd < 0) {
    loop_.schedule_after(options_.reconnect_backoff_ms * 1000,
                         [this, conn_idx] { redial(conn_idx); });
    return;
  }
  auto conn = std::make_shared<transport::Connection>(loop_, fd, &stats_);
  conns_[static_cast<std::size_t>(conn_idx)] = conn;
  conn->start(
      [this](transport::Frame&& frame) {
        if (frame.kind != transport::FrameKind::kClientReply) return;
        if (const auto reply = codec::decode_client_reply(frame.payload)) on_reply(*reply);
      },
      [this, conn_idx] { on_conn_closed(conn_idx); });
  // Replay every in-flight request pinned to this connection, under the
  // original ids (the server's dedup absorbs duplicates) and the original
  // start timestamps (a retried command's RTT includes the outage).
  for (const auto& [id, p] : inflight_) {
    if (p.session % options_.connections != conn_idx) continue;
    send_request(p.session, id, p);
    ++result_.resends;
  }
}

LoadResult OpenLoopLoadgen::run() {
  conns_.resize(static_cast<std::size_t>(options_.connections));
  for (int c = 0; c < options_.connections; ++c) {
    const transport::Endpoint& ep =
        options_.spread ? servers_[static_cast<std::size_t>(c) % servers_.size()]
                        : servers_.front();
    const int fd = transport::dial_blocking(ep, std::chrono::steady_clock::now() + kDialTimeout);
    if (fd < 0) throw std::runtime_error("loadgen: cannot reach " + ep.to_string());
    auto conn = std::make_shared<transport::Connection>(loop_, fd, &stats_);
    conns_[static_cast<std::size_t>(c)] = conn;
    conn->start(
        [this](transport::Frame&& frame) {
          if (frame.kind != transport::FrameKind::kClientReply) return;
          if (const auto reply = codec::decode_client_reply(frame.payload)) on_reply(*reply);
        },
        [this, c] { on_conn_closed(c); });
  }
  window_start_us_ = loop_.now_us();
  next_arrival_us_ = static_cast<double>(window_start_us_);
  arm_pump();
  loop_.schedule_after(options_.duration_ms * 1000, [this] {
    offering_ = false;
    window_end_us_ = loop_.now_us();
    finish_if_drained();  // nothing in flight: stop without waiting the drain out
    loop_.schedule_after(options_.drain_ms * 1000, [this] { loop_.request_stop(); });
  });
  loop_.run();
  result_.window_us = (window_end_us_ > 0 ? window_end_us_ : loop_.now_us()) - window_start_us_;
  result_.lost = static_cast<std::int64_t>(inflight_.size());
  result_.rtt = rtt_.snapshot();
  for (auto& conn : conns_)
    if (conn) conn->close();
  return result_;
}

std::string LoadResult::to_json() const {
  std::ostringstream os;
  os << "{\"offered\":" << offered << ",\"ok\":" << ok << ",\"ok_in_window\":" << ok_in_window
     << ",\"rejected\":" << rejected << ",\"lost\":" << lost << ",\"resends\":" << resends
     << ",\"reconnects\":" << reconnects << ",\"window_us\":" << window_us
     << ",\"offered_rate\":" << offered_rate() << ",\"achieved_rate\":" << achieved_rate()
     << ",\"rtt_us\":";
  obs::write_json(os, rtt);
  os << "}";
  return os.str();
}

}  // namespace twostep::node
