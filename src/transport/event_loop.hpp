// Non-blocking I/O event loop for the live node runtime.
//
// A minimal epoll reactor: level-triggered fd callbacks, monotonic-clock
// timers kept in deadline order, and a thread-safe post() queue woken
// through an eventfd.  One loop = one thread: every callback runs on the
// thread inside run(); the only cross-thread entry points are post() and
// request_stop() (the latter additionally async-signal-safe, so a SIGINT
// handler can stop a server).
//
// Time is exposed as microseconds since loop construction, which is what the
// live consensus::Env reports as sim::Tick — the protocols run on the same
// integer clock in both worlds, only the unit convention changes (one tick =
// one microsecond instead of one abstract round unit).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace twostep::transport {

/// Optional loop self-instrumentation.  All pointers null (the default)
/// costs one branch per loop iteration and zero clock reads; with
/// histograms installed, each wakeup records how long the loop blocked in
/// epoll, how long the dispatch work took, and the timer/posted queue
/// depths it saw.  Install before run() starts; the histograms are
/// internally thread-safe.
struct LoopProbe {
  obs::LogHistogram* poll_us = nullptr;      ///< time blocked in epoll
  obs::LogHistogram* work_us = nullptr;      ///< non-blocking dispatch time per wakeup
  obs::LogHistogram* timer_depth = nullptr;  ///< armed timers, sampled per iteration
  obs::LogHistogram* posted_depth = nullptr; ///< posted tasks drained per iteration
};

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Microseconds elapsed since construction (CLOCK_MONOTONIC).
  [[nodiscard]] std::int64_t now_us() const;

  /// Registers `fd` for the epoll event mask `events` (EPOLLIN/EPOLLOUT...).
  /// The callback runs on the loop thread for every ready notification and
  /// may call mod_fd/del_fd, including on its own fd.
  void add_fd(int fd, std::uint32_t events, FdCallback cb);
  void mod_fd(int fd, std::uint32_t events);
  void del_fd(int fd);

  /// Arms a one-shot timer `delay_us` microseconds from now; returns an id
  /// usable with cancel_timer.  Loop-thread only.
  std::uint64_t schedule_after(std::int64_t delay_us, Task fn);

  /// Cancels a pending timer and forgets it at once; false if it already
  /// fired or is unknown.
  bool cancel_timer(std::uint64_t id);

  /// Enqueues `fn` to run on the loop thread.  Thread-safe; wakes the loop.
  void post(Task fn);

  /// Enqueues `fn` to run once at the end of the current dispatch round,
  /// before the loop blocks in epoll again.  Loop-thread only.  The
  /// transport uses this to coalesce every frame queued during one round
  /// into a single vectored flush per connection.
  void at_round_end(Task fn);

  /// How long the loop would block right now, in µs (-1 = no timer, 0 = a
  /// timer is due).  Exposed for regression tests.
  [[nodiscard]] std::int64_t next_timeout_hint_us() const { return next_timeout_us(); }

  /// Dispatches events until request_stop().  Runs posted tasks, due timers
  /// and fd callbacks; blocks in epoll_pwait2 when idle, with a µs timeout.
  /// The calling thread's timer slack is 1 ns while it runs, so a wait
  /// ends within a few µs of its timer's deadline; the thread's previous
  /// slack is restored on return.
  void run();

  /// Requests run() to return after the current dispatch round.  Safe from
  /// any thread and from signal handlers (atomic store + eventfd write).
  void request_stop() noexcept;

  /// Installs the self-instrumentation probe.  Call before run() starts.
  void set_probe(const LoopProbe& probe) noexcept { probe_ = probe; }

  /// True between run() entry and request_stop() taking effect.
  [[nodiscard]] bool stopped() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

 private:
  /// (deadline, id): deadline order, ties in scheduling order.
  using TimerKey = std::pair<std::int64_t, std::uint64_t>;

  void drain_wake_fd();
  void run_posted();
  void fire_due_timers();
  void run_round_end();
  /// µs until the earliest timer, unrounded; 0 when due, -1 when no timer.
  [[nodiscard]] std::int64_t next_timeout_us() const;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::int64_t origin_ns_ = 0;

  // shared_ptr so a callback erasing its own (or another) fd mid-dispatch
  // cannot free the std::function currently executing.
  std::unordered_map<int, std::shared_ptr<FdCallback>> fds_;

  std::map<TimerKey, Task> timers_;                          ///< armed, earliest first
  std::unordered_map<std::uint64_t, std::int64_t> deadlines_;  ///< id -> deadline_us
  std::uint64_t next_timer_id_ = 1;

  std::mutex post_mu_;
  std::vector<Task> posted_;

  std::vector<Task> round_end_;  ///< loop-thread only; drained every round

  LoopProbe probe_;

  std::atomic<bool> stop_{false};
};

}  // namespace twostep::transport
