#include "node/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <sstream>
#include <utility>

namespace twostep::node {

namespace {

std::int64_t monotonic_us() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1000;
}

/// Process-unique, nonzero session id.  Mixes the clock, the pid and a
/// process-local counter so two clients created in the same microsecond —
/// or in different processes talking to the same cluster — never collide.
std::int64_t make_client_id() {
  static std::atomic<std::uint64_t> counter{1};
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  const std::uint64_t base =
      (static_cast<std::uint64_t>(ts.tv_sec) << 20) ^ static_cast<std::uint64_t>(ts.tv_nsec) ^
      (static_cast<std::uint64_t>(::getpid()) << 40);
  const std::uint64_t mixed =
      util::splitmix64(base, counter.fetch_add(1, std::memory_order_relaxed));
  const auto id = static_cast<std::int64_t>(mixed >> 1);  // keep it positive
  return id == 0 ? 1 : id;
}

}  // namespace

ClientSession::ClientSession(std::vector<transport::Endpoint> servers,
                             obs::MetricsRegistry* metrics, Options options)
    : servers_(std::move(servers)),
      options_(options),
      metrics_(metrics),
      client_id_(options.client_id != 0 ? options.client_id : make_client_id()),
      redial_backoff_(options.backoff_min_ms * 1000, options.backoff_max_ms * 1000,
                      util::splitmix64(options.seed, static_cast<std::uint64_t>(client_id_))) {
  if (metrics_) {
    rtt_us_ = &metrics_->log_histogram("client.rtt_us");
    failover_rtt_us_ = &metrics_->log_histogram("client.failover_rtt_us");
  }
}

ClientSession::ClientSession(transport::Endpoint server, obs::MetricsRegistry* metrics,
                             Options options)
    : ClientSession(std::vector<transport::Endpoint>{std::move(server)}, metrics, options) {}

ClientSession::~ClientSession() { close(); }

std::int64_t ClientSession::now_us() const { return monotonic_us(); }

void ClientSession::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ClientSession::count(const char* name, std::int64_t& local) {
  ++local;
  if (metrics_) metrics_->counter(name).add(1);
}

void ClientSession::fail_over() {
  close();
  parser_ = transport::FrameParser{};
  current_ = (current_ + 1) % servers_.size();
  count("client.failovers", failovers_);
}

bool ClientSession::dial_current(std::int64_t deadline) {
  const int fd = transport::dial_blocking(
      servers_[current_],
      std::chrono::steady_clock::now() + std::chrono::microseconds(deadline - now_us()));
  if (fd < 0) return false;
  fd_ = fd;
  parser_ = transport::FrameParser{};
  return true;
}

bool ClientSession::reconnect(std::int64_t deadline) {
  for (;;) {
    // One pass over the replica list per backoff round: a crashed proxy
    // costs one refused connect, then the next replica answers.  Each dial
    // gets an equal share of what is left for the replicas not yet tried,
    // so one that drops SYNs cannot use up the whole budget.
    for (std::size_t tried = 0; tried < servers_.size(); ++tried) {
      const auto untried = static_cast<std::int64_t>(servers_.size() - tried);
      const std::int64_t now = now_us();
      if (dial_current(now + std::max<std::int64_t>(deadline - now, 0) / untried)) {
        redial_backoff_.reset();
        return true;
      }
      current_ = (current_ + 1) % servers_.size();
    }
    if (now_us() >= deadline) return false;
    // Whole cluster unreachable right now — back off with jitter so a herd
    // of clients does not redial in lockstep (see util::Backoff).
    const std::int64_t sleep_us = std::min(redial_backoff_.next(), deadline - now_us());
    if (sleep_us > 0) ::usleep(static_cast<useconds_t>(sleep_us));
  }
}

bool ClientSession::connect() {
  if (fd_ >= 0) return true;
  return reconnect(now_us() + options_.connect_timeout_ms * 1000);
}

ClientSession::Wait ClientSession::await_reply(std::int64_t id, std::int64_t deadline,
                                              codec::ClientReply& out) {
  std::uint8_t buf[65536];
  for (;;) {
    // Drain buffered frames before blocking again.
    while (auto f = parser_.next()) {
      if (f->kind != transport::FrameKind::kClientReply) continue;
      const auto reply = codec::decode_client_reply(f->payload);
      if (!reply || reply->id != id) continue;  // stale reply from a timed-out call
      out = *reply;
      return Wait::kGot;
    }
    if (parser_.failed()) return Wait::kConnLost;
    const std::int64_t remaining_us = deadline - now_us();
    if (remaining_us <= 0) return Wait::kTimeout;
    // Round up: truncating would end an attempt up to 1 ms before its
    // deadline (and poll(0) would spin through the last millisecond).
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>((remaining_us + 999) / 1000));
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) return Wait::kTimeout;
    if (ready < 0) return Wait::kConnLost;
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Wait::kConnLost;
    if (!parser_.feed({buf, static_cast<std::size_t>(n)})) return Wait::kConnLost;
  }
}

std::optional<codec::ClientReply> ClientSession::call(std::int64_t payload) {
  const std::int64_t id = next_id_++;
  const std::int64_t start = now_us();
  const std::int64_t deadline = start + options_.request_timeout_ms * 1000;
  const std::int64_t failovers_at_start = failovers_;
  if (metrics_) metrics_->counter("client.requests").add(1);
  // With a flight recorder installed the request carries a fresh trace:
  // (client, id)-derived trace id, the call's root span as parent, and the
  // shared raw monotonic clock as origin (now_us() reads that same clock).
  obs::TraceContext trace;
  std::uint64_t call_span = 0;
  if (options_.flight) {
    call_span = options_.flight->next_span_id();
    trace = obs::TraceContext{
        util::splitmix64(static_cast<std::uint64_t>(client_id_), static_cast<std::uint64_t>(id)) |
            1,
        call_span, start};
  }
  // Same bytes on every attempt: the retry carries the same
  // (client_id, id), which is what lets the server deduplicate it.
  const std::vector<std::uint8_t> frame = transport::make_frame(
      transport::FrameKind::kClientRequest,
      codec::encode(codec::ClientRequest{id, payload, client_id_, trace}));

  for (;;) {
    if (fd_ < 0 && !reconnect(deadline)) return std::nullopt;
    if (!transport::send_all(fd_, frame)) {
      count("client.conn_lost", conn_lost_);
      fail_over();
      if (now_us() >= deadline) return std::nullopt;
      continue;
    }
    const std::int64_t attempt_deadline =
        std::min(deadline, now_us() + options_.attempt_timeout_ms * 1000);
    codec::ClientReply reply;
    switch (await_reply(id, attempt_deadline, reply)) {
      case Wait::kGot: {
        const std::int64_t rtt = now_us() - start;
        if (rtt_us_) rtt_us_->record(rtt);
        if (failover_rtt_us_ && failovers_ != failovers_at_start) failover_rtt_us_->record(rtt);
        window_rtt_.record(rtt);
        if (options_.flight)
          options_.flight->record({trace.trace_id, call_span, 0, "client.call", start, rtt, id});
        if (metrics_)
          metrics_->counter(reply.ok ? "client.replies" : "client.rejections").add(1);
        return reply;
      }
      case Wait::kConnLost:
        count("client.conn_lost", conn_lost_);
        fail_over();
        break;
      case Wait::kTimeout:
        count("client.timeouts", timeouts_);
        if (attempt_deadline >= deadline) return std::nullopt;  // budget exhausted
        fail_over();  // this proxy is not answering; try another replica
        break;
    }
    if (now_us() >= deadline) return std::nullopt;
  }
}

ClientSession::WorkloadResult ClientSession::run_closed_loop(
    std::int64_t count, const std::function<std::int64_t(std::int64_t)>& payload_of) {
  WorkloadResult result;
  window_rtt_.reset();
  const std::int64_t timeouts0 = timeouts_;
  const std::int64_t conn_lost0 = conn_lost_;
  const std::int64_t failovers0 = failovers_;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t payload = payload_of ? payload_of(i) : i;
    const auto reply = call(payload);
    if (!reply) {
      ++result.lost;
      if (!connected()) break;  // cluster unreachable even after failover
      continue;
    }
    if (reply->ok) {
      ++result.ok;
      result.acked.push_back(payload);
    } else {
      ++result.rejected;
    }
  }
  result.timeouts = timeouts_ - timeouts0;
  result.conn_lost = conn_lost_ - conn_lost0;
  result.failovers = failovers_ - failovers0;
  result.rtt = window_rtt_.snapshot();
  return result;
}

std::string ClientSession::WorkloadResult::to_json() const {
  std::ostringstream os;
  os << "{\"ok\":" << ok << ",\"rejected\":" << rejected << ",\"lost\":" << lost
     << ",\"timeouts\":" << timeouts << ",\"conn_lost\":" << conn_lost
     << ",\"failovers\":" << failovers << ",\"rtt_us\":";
  obs::write_json(os, rtt);
  os << "}";
  return os.str();
}

}  // namespace twostep::node
