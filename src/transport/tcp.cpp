#include "transport/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

namespace twostep::transport {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

int make_socket() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  return fd;
}

sockaddr_in make_addr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1)
    throw std::system_error(EINVAL, std::generic_category(), "inet_pton: " + ep.host);
  return addr;
}

}  // namespace

int bind_listener(Endpoint& ep) {
  const int fd = make_socket();
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(ep);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "bind " + ep.to_string());
  }
  if (::listen(fd, 128) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "listen " + ep.to_string());
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    ep.port = ntohs(bound.sin_port);
  return fd;
}

int dial_nonblocking(const Endpoint& ep) {
  const int fd = make_socket();
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr = make_addr(ep);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    // Synchronous refusal (common on loopback): report as a failed dial,
    // not an exception — the caller's retry loop handles it.
    ::close(fd);
    return -1;
  }
  return fd;
}

int dial_blocking(const Endpoint& ep, std::chrono::steady_clock::time_point deadline) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  const auto fail = [fd](int err) {
    ::close(fd);
    errno = err;
    return -1;
  };
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) return fail(errno);
    for (;;) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                                 deadline - std::chrono::steady_clock::now())
                                 .count();
      if (remaining <= 0) return fail(ETIMEDOUT);
      pollfd pfd{fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(remaining));
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) return fail(errno);
      if (ready > 0) break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return fail(errno);
    if (err != 0) return fail(err);
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) & ~O_NONBLOCK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// ---- Connection -----------------------------------------------------------

Connection::Connection(EventLoop& loop, int fd, TransportStats* stats)
    : loop_(loop), fd_(fd), stats_(stats) {
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Connection::~Connection() {
  // No del_fd here: the loop's fd callback holds a shared_ptr to us, so if
  // fd_ is still open the destructor can only be running because that map
  // entry is itself being destroyed (close() already deregistered
  // otherwise) — touching the map again would double-free the node.
  // Closing the fd removes it from the epoll set automatically.
  if (fd_ >= 0) ::close(fd_);
}

void Connection::start(FrameHandler on_frame, CloseHandler on_close) {
  on_frame_ = std::move(on_frame);
  on_close_ = std::move(on_close);
  auto self = shared_from_this();
  loop_.add_fd(fd_, EPOLLIN, [self](std::uint32_t events) { self->handle_events(events); });
}

void Connection::send_frame(FrameKind kind, std::span<const std::uint8_t> payload) {
  if (closed()) return;
  // Pack into the tail chunk; start a new one (recycling the spare) once
  // the tail reaches the chunk target.  A frame larger than the target
  // simply grows its chunk — the 1 MiB wire cap bounds the worst case.
  if (outbox_.empty() || outbox_.back().size() >= kChunkTarget) {
    spare_.clear();
    outbox_.push_back(std::move(spare_));
    spare_ = {};
    if (outbox_.back().capacity() < kChunkTarget) outbox_.back().reserve(kChunkTarget);
  }
  const std::size_t before = outbox_.back().size();
  append_frame(outbox_.back(), kind, payload);
  unsent_bytes_ += outbox_.back().size() - before;
  if (stats_) stats_->frames_sent.fetch_add(1, std::memory_order_relaxed);
  if (stats_ && stats_->outbox_bytes)
    stats_->outbox_bytes->record(static_cast<std::int64_t>(unsent_bytes_));
  schedule_flush();
}

void Connection::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  auto self = shared_from_this();
  loop_.at_round_end([self] {
    self->flush_scheduled_ = false;
    if (self->closed()) return;
    if (!self->flush()) {
      self->fail();
      return;
    }
    self->update_interest();
  });
}

void Connection::close() {
  if (fd_ < 0) return;
  loop_.del_fd(fd_);
  ::close(fd_);
  fd_ = -1;
}

void Connection::fail() {
  if (fd_ < 0) return;
  close();
  if (on_close_) {
    CloseHandler cb = std::move(on_close_);
    on_close_ = nullptr;
    cb();
  }
}

void Connection::handle_events(std::uint32_t events) {
  auto self = shared_from_this();
  if (closed()) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    fail();
    return;
  }
  if (events & EPOLLOUT) {
    if (!flush()) {
      fail();
      return;
    }
    update_interest();
  }
  if (events & EPOLLIN) handle_readable();
}

void Connection::handle_readable() {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      if (stats_) stats_->bytes_received.fetch_add(static_cast<std::uint64_t>(n),
                                                   std::memory_order_relaxed);
      if (!parser_.feed({buf, static_cast<std::size_t>(n)})) {
        fail();  // framing violation: cannot resync a byte stream
        return;
      }
      while (auto frame = parser_.next()) {
        if (stats_) stats_->frames_received.fetch_add(1, std::memory_order_relaxed);
        if (on_frame_) on_frame_(std::move(*frame));
        if (closed()) return;  // handler closed us
      }
      if (parser_.failed()) {
        fail();
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof(buf)) return;  // drained
      continue;
    }
    if (n == 0) {  // EOF
      fail();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    fail();
    return;
  }
}

bool Connection::flush() {
  constexpr int kMaxIov = 64;
  while (unsent_bytes_ > 0) {
    iovec iov[kMaxIov];
    int cnt = 0;
    std::size_t off = head_sent_;
    for (auto it = outbox_.begin(); it != outbox_.end() && cnt < kMaxIov; ++it) {
      iov[cnt].iov_base = it->data() + off;
      iov[cnt].iov_len = it->size() - off;
      off = 0;
      ++cnt;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = static_cast<std::size_t>(cnt);
    const ssize_t n = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      if (stats_) stats_->bytes_sent.fetch_add(static_cast<std::uint64_t>(n),
                                               std::memory_order_relaxed);
      unsent_bytes_ -= static_cast<std::size_t>(n);
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        auto& front = outbox_.front();
        const std::size_t avail = front.size() - head_sent_;
        if (left >= avail) {
          left -= avail;
          head_sent_ = 0;
          // Recycle one fully-drained chunk so the steady state allocates
          // nothing per round.
          if (spare_.capacity() == 0) {
            spare_ = std::move(front);
            spare_.clear();
          }
          outbox_.pop_front();
        } else {
          head_sent_ += left;
          left = 0;
        }
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void Connection::update_interest() {
  if (closed()) return;
  const bool want = unsent_bytes_ > 0;
  if (want == want_write_) return;
  want_write_ = want;
  loop_.mod_fd(fd_, want ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
}

// ---- PeerLink -------------------------------------------------------------

PeerLink::PeerLink(EventLoop& loop, consensus::ProcessId self, consensus::ProcessId peer,
                   Endpoint target, TransportStats* stats)
    : loop_(loop),
      self_(self),
      peer_(peer),
      target_(std::move(target)),
      stats_(stats),
      rng_(util::splitmix64(static_cast<std::uint64_t>(self) + 1,
                            static_cast<std::uint64_t>(peer) + 1)) {}

void PeerLink::start() { attempt_connect(); }

void PeerLink::send_frame(FrameKind kind, std::vector<std::uint8_t> payload) {
  if (stopped_) return;
  if (chaos_ != nullptr) {
    const faults::FaultPlan::Decision d = chaos_->decide(loop_.now_us(), peer_);
    if (d.dropped()) {
      if (stats_) stats_->chaos_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (int copy = 1; copy < d.copies; ++copy) {
      if (stats_) stats_->chaos_duplicated.fetch_add(1, std::memory_order_relaxed);
      enqueue_frame(kind, payload);
    }
    if (d.extra_delay > 0) {
      if (stats_) stats_->chaos_delayed.fetch_add(1, std::memory_order_relaxed);
      // Park the frame on the timer heap; it re-enters the normal pipeline
      // (connected send or bounded queue) when the delay elapses.  The
      // lambda may outlive the link's *connection* but never the link: a
      // Runtime joins the loop thread before tearing links down, and
      // enqueue_frame checks stopped_ for the post-shutdown case.
      loop_.schedule_after(d.extra_delay,
                           [this, kind, frame = std::move(payload)]() mutable {
                             enqueue_frame(kind, std::move(frame));
                           });
      return;
    }
  }
  enqueue_frame(kind, std::move(payload));
}

void PeerLink::enqueue_frame(FrameKind kind, std::vector<std::uint8_t> payload) {
  if (stopped_) return;
  if (conn_ && !conn_->closed()) {
    conn_->send_frame(kind, payload);
    return;
  }
  // Disconnected: keep a bounded tail of recent frames.  Dropping the
  // oldest is safe — the protocols' ballot timers retransmit intent.
  pending_.emplace_back(kind, std::move(payload));
  if (pending_.size() > kMaxPending) {
    pending_.pop_front();
    if (stats_) stats_->frames_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  if (stats_ && stats_->pending_frames)
    stats_->pending_frames->record(static_cast<std::int64_t>(pending_.size()));
}

void PeerLink::shutdown() {
  stopped_ = true;
  if (retry_timer_ != 0) {
    loop_.cancel_timer(retry_timer_);
    retry_timer_ = 0;
  }
  cancel_connect_timer();
  if (dial_fd_ >= 0) {
    loop_.del_fd(dial_fd_);
    ::close(dial_fd_);
    dial_fd_ = -1;
  }
  if (conn_) {
    conn_->close();
    conn_.reset();
  }
  up_.store(false, std::memory_order_relaxed);
  pending_.clear();
}

void PeerLink::redial_now() {
  if (stopped_ || retry_timer_ == 0) return;  // connected, dialing, or shut down
  loop_.cancel_timer(retry_timer_);
  attempt_connect();
}

void PeerLink::attempt_connect() {
  if (stopped_) return;
  retry_timer_ = 0;
  const int fd = dial_nonblocking(target_);
  if (fd < 0) {
    schedule_retry();
    return;
  }
  dial_fd_ = fd;
  loop_.add_fd(fd, EPOLLOUT, [this, fd](std::uint32_t events) { on_dial_result(fd, events); });
  // A SYN into a blackhole (chaos partition, dead routing) would otherwise
  // sit in EINPROGRESS for the kernel's multi-minute default.
  connect_timer_ = loop_.schedule_after(kConnectTimeoutUs, [this] { on_dial_timeout(); });
}

void PeerLink::cancel_connect_timer() {
  if (connect_timer_ == 0) return;
  loop_.cancel_timer(connect_timer_);
  connect_timer_ = 0;
}

void PeerLink::on_dial_timeout() {
  connect_timer_ = 0;
  if (dial_fd_ < 0) return;
  loop_.del_fd(dial_fd_);
  ::close(dial_fd_);
  dial_fd_ = -1;
  if (stats_) stats_->connect_timeouts.fetch_add(1, std::memory_order_relaxed);
  schedule_retry();
}

void PeerLink::on_dial_result(int fd, std::uint32_t /*events*/) {
  cancel_connect_timer();
  loop_.del_fd(fd);
  dial_fd_ = -1;
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) err = errno;
  if (err != 0) {
    ::close(fd);
    schedule_retry();
    return;
  }
  established(fd);
}

void PeerLink::established(int fd) {
  backoff_us_ = kBackoffMinUs;
  if (ever_connected_ && stats_) stats_->reconnects.fetch_add(1, std::memory_order_relaxed);
  ever_connected_ = true;
  conn_ = std::make_shared<Connection>(loop_, fd, stats_);
  up_.store(true, std::memory_order_relaxed);
  conn_->start(
      // This edge is write-only; a well-behaved peer never sends on it.
      [](Frame&&) {},
      [this] {
        up_.store(false, std::memory_order_relaxed);
        conn_.reset();
        schedule_retry();
      });
  const std::vector<std::uint8_t> hello = encode_hello(self_);
  conn_->send_frame(FrameKind::kHello, hello);
  while (conn_ && !conn_->closed() && !pending_.empty()) {
    auto [kind, payload] = std::move(pending_.front());
    pending_.pop_front();
    conn_->send_frame(kind, payload);
  }
  if (on_connected_ && conn_ && !conn_->closed()) on_connected_();
}

void PeerLink::schedule_retry() {
  if (stopped_ || retry_timer_ != 0) return;
  // Jittered exponential backoff, uniform in [backoff/2, backoff]: after a
  // restarted node comes back, its n-1 peers redial spread out instead of
  // in lockstep (they all observed the disconnect at the same instant).
  const std::int64_t low = backoff_us_ / 2;
  const std::int64_t delay =
      low + static_cast<std::int64_t>(
                rng_.next_below(static_cast<std::uint64_t>(backoff_us_ - low) + 1));
  retry_timer_ = loop_.schedule_after(delay, [this] { attempt_connect(); });
  backoff_us_ = std::min(backoff_us_ * 2, kBackoffMaxUs);
}

}  // namespace twostep::transport
