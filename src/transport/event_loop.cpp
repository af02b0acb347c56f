#include "transport/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace twostep::transport {

namespace {

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Blocks in epoll for up to `timeout_us` µs (-1 = no limit).  Kernels
/// before 5.11, and sandboxes that filter the call, lack epoll_pwait2;
/// there the wait falls back to epoll_wait with the timeout rounded up to
/// whole ms, so a timer may fire up to 1 ms late but never early.
int wait_for_events(int epoll_fd, epoll_event* events, int max_events, std::int64_t timeout_us) {
  static std::atomic<bool> no_pwait2{false};
  if (!no_pwait2.load(std::memory_order_relaxed)) {
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(timeout_us / 1'000'000);
    timeout.tv_nsec = static_cast<long>(timeout_us % 1'000'000) * 1000;
    const int ready =
        ::epoll_pwait2(epoll_fd, events, max_events, timeout_us < 0 ? nullptr : &timeout, nullptr);
    if (ready >= 0 || (errno != ENOSYS && errno != EPERM)) return ready;
    no_pwait2.store(true, std::memory_order_relaxed);
  }
  const std::int64_t timeout_ms = timeout_us < 0 ? -1 : (timeout_us + 999) / 1000;
  return ::epoll_wait(epoll_fd, events, max_events,
                      static_cast<int>(std::min<std::int64_t>(timeout_ms, INT_MAX)));
}

/// Sets the calling thread's timer slack to 1 ns while the guard lives and
/// restores the previous slack after.  The default 50 µs slack lets the
/// kernel end a µs-precise epoll wait up to 50 µs late.
class TimerSlackGuard {
 public:
  TimerSlackGuard() : previous_ns_(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  }
  ~TimerSlackGuard() {
    if (previous_ns_ > 0)
      ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(previous_ns_), 0, 0, 0);
  }
  TimerSlackGuard(const TimerSlackGuard&) = delete;
  TimerSlackGuard& operator=(const TimerSlackGuard&) = delete;

 private:
  int previous_ns_;
};

}  // namespace

EventLoop::EventLoop() : origin_ns_(monotonic_ns()) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0)
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw std::system_error(errno, std::generic_category(), "eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    const int err = errno;
    ::close(wake_fd_);
    ::close(epoll_fd_);
    throw std::system_error(err, std::generic_category(), "epoll_ctl(wake)");
  }
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::int64_t EventLoop::now_us() const { return (monotonic_ns() - origin_ns_) / 1000; }

void EventLoop::add_fd(int fd, std::uint32_t events, FdCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0)
    throw std::system_error(errno, std::generic_category(), "epoll_ctl(add)");
  fds_[fd] = std::make_shared<FdCallback>(std::move(cb));
}

void EventLoop::mod_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0)
    throw std::system_error(errno, std::generic_category(), "epoll_ctl(mod)");
}

void EventLoop::del_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);  // best-effort
  fds_.erase(fd);
}

std::uint64_t EventLoop::schedule_after(std::int64_t delay_us, Task fn) {
  if (delay_us < 0) delay_us = 0;
  const std::uint64_t id = next_timer_id_++;
  const std::int64_t deadline_us = now_us() + delay_us;
  timers_.emplace(TimerKey{deadline_us, id}, std::move(fn));
  deadlines_.emplace(id, deadline_us);
  return id;
}

bool EventLoop::cancel_timer(std::uint64_t id) {
  const auto it = deadlines_.find(id);
  if (it == deadlines_.end()) return false;
  timers_.erase(TimerKey{it->second, id});
  deadlines_.erase(it);
  return true;
}

void EventLoop::post(Task fn) {
  {
    const std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  std::uint64_t one = 1;
  // EINTR/EAGAIN are benign: the eventfd is only a wakeup edge.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::request_stop() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::drain_wake_fd() {
  std::uint64_t buf = 0;
  while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
  }
}

void EventLoop::run_posted() {
  // Swap under the lock; tasks posted while running land in the next round.
  std::vector<Task> batch;
  {
    const std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
  }
  if (probe_.posted_depth) probe_.posted_depth->record(static_cast<std::int64_t>(batch.size()));
  for (Task& task : batch) task();
}

void EventLoop::fire_due_timers() {
  const std::int64_t now = now_us();
  while (!timers_.empty() && timers_.begin()->first.first <= now) {
    auto due = timers_.extract(timers_.begin());
    deadlines_.erase(due.key().second);
    due.mapped()();
  }
}

void EventLoop::at_round_end(Task fn) { round_end_.push_back(std::move(fn)); }

void EventLoop::run_round_end() {
  // Swap first: a round-end task scheduling another round-end task (it
  // should not, but defensively) lands in the next round, not this loop.
  std::vector<Task> batch;
  batch.swap(round_end_);
  for (Task& task : batch) task();
}

std::int64_t EventLoop::next_timeout_us() const {
  if (timers_.empty()) return -1;
  return std::max<std::int64_t>(timers_.begin()->first.first - now_us(), 0);
}

void EventLoop::run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  // Timing is only measured when the probe asks for it: the unprobed loop
  // reads no clocks beyond what dispatch itself needs.
  const bool timed = probe_.poll_us != nullptr || probe_.work_us != nullptr;
  const TimerSlackGuard slack;
  std::int64_t work_start_us = timed ? now_us() : 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    run_posted();
    fire_due_timers();
    if (probe_.timer_depth) probe_.timer_depth->record(static_cast<std::int64_t>(timers_.size()));
    run_round_end();
    if (stop_.load(std::memory_order_relaxed)) break;
    const std::int64_t timeout_us = next_timeout_us();
    std::int64_t poll_start_us = 0;
    if (timed) {
      poll_start_us = now_us();
      if (probe_.work_us) probe_.work_us->record(poll_start_us - work_start_us);
    }
    const int ready = wait_for_events(epoll_fd_, events, kMaxEvents, timeout_us);
    if (timed) {
      work_start_us = now_us();
      if (probe_.poll_us) probe_.poll_us->record(work_start_us - poll_start_us);
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "epoll wait");
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        drain_wake_fd();
        continue;
      }
      // Look the callback up per event: an earlier callback in this batch
      // may have closed this fd (stale level-triggered events are skipped).
      const auto it = fds_.find(fd);
      if (it == fds_.end()) continue;
      const std::shared_ptr<FdCallback> cb = it->second;  // keep alive
      (*cb)(events[i].events);
    }
  }
}

}  // namespace twostep::transport
