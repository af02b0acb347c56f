// DirectDrive<P>: a fully adversary-controlled scheduler.
//
// Unlike the Cluster harness (which runs on virtual time through a latency
// model), DirectDrive gives the caller complete control over the order in
// which messages are delivered and timers fire — exactly the power the
// lower-bound proofs of Appendix B give the adversary.  It is the engine
// under the lowerbound/ run-splicing scenarios, the bounded model checker
// and the schedule fuzzer.
//
// Crash semantics: crash(p) is crash-stop — p handles nothing further and
// its future sends are dropped; messages p *already* handed to the network
// stay deliverable (reliable links).  crash_suppressing_outbox(p)
// additionally removes p's still-undelivered messages, modelling a crash in
// the middle of a step (after the local transition, before the sends reach
// the network) — the proofs' "decides and immediately fails" events need
// this.
//
// restore_from(other) makes a drive the same state as another drive built
// from the same config, without running the factory again: the model
// checker builds its post-setup state once and restores it for every node
// and every fuzz trace.  It needs the process hook
//   void copy_state_from(const P& other);
// whose contract modelcheck/digest.hpp states beside the digest hook; it
// keeps the process's own Env binding and on_decide.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "consensus/env.hpp"
#include "consensus/monitor.hpp"
#include "consensus/types.hpp"

namespace twostep::modelcheck {

template <typename P>
class DirectDrive {
 public:
  using Msg = typename P::Message;
  using Factory =
      std::function<std::unique_ptr<P>(consensus::Env<Msg>&, consensus::ProcessId)>;

  struct Pending {
    std::uint64_t seq = 0;
    consensus::ProcessId from = consensus::kNoProcess;
    consensus::ProcessId to = consensus::kNoProcess;
    Msg msg{};
  };

  DirectDrive(consensus::SystemConfig config, Factory factory) : config_(config) {
    if (!factory) throw std::invalid_argument("DirectDrive: null factory");
    crashed_.assign(static_cast<std::size_t>(config_.n), false);
    armed_.assign(static_cast<std::size_t>(config_.n), 0);
    up_ = config_.n;
    envs_.reserve(static_cast<std::size_t>(config_.n));
    for (consensus::ProcessId p = 0; p < config_.n; ++p)
      envs_.push_back(std::make_unique<DriveEnv>(*this, p));
    for (consensus::ProcessId p = 0; p < config_.n; ++p) {
      processes_.push_back(factory(*envs_[static_cast<std::size_t>(p)], p));
      processes_.back()->on_decide = [this, p](consensus::Value v) {
        monitor_.note_decision(p, v, step_);
      };
    }
  }

  [[nodiscard]] const consensus::SystemConfig& config() const noexcept { return config_; }
  [[nodiscard]] P& process(consensus::ProcessId p) {
    return *processes_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const P& process(consensus::ProcessId p) const {
    return *processes_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] consensus::ConsensusMonitor& monitor() noexcept { return monitor_; }
  [[nodiscard]] const consensus::ConsensusMonitor& monitor() const noexcept { return monitor_; }
  [[nodiscard]] bool crashed(consensus::ProcessId p) const {
    return crashed_[static_cast<std::size_t>(p)] != 0;
  }
  /// Processes not crashed.
  [[nodiscard]] int up() const noexcept { return up_; }
  /// Processes not crashed that have an armed timer.
  [[nodiscard]] int timers_ready() const noexcept { return ready_; }

  /// Makes this drive the state of `other`, a drive with the same config:
  /// its pool, timers, monitor, crash flags, fault counts, and seq, TimerId
  /// and step counters, so the two go on to name messages and timers alike.
  /// Every process copies its state through copy_state_from.  The vectors
  /// keep their capacity.
  void restore_from(const DirectDrive& other) {
    if (other.config_.n != config_.n)
      throw std::invalid_argument("DirectDrive: restore from a drive of another size");
    monitor_ = other.monitor_;
    for (std::size_t i = 0; i < processes_.size(); ++i)
      processes_[i]->copy_state_from(*other.processes_[i]);
    crashed_ = other.crashed_;
    pool_ = other.pool_;
    timers_ = other.timers_;
    armed_ = other.armed_;
    up_ = other.up_;
    ready_ = other.ready_;
    next_seq_ = other.next_seq_;
    next_timer_ = other.next_timer_;
    step_ = other.step_;
    injected_drops_ = other.injected_drops_;
    injected_dups_ = other.injected_dups_;
    injected_partitions_ = other.injected_partitions_;
  }

  /// Starts every non-crashed process (arming its timers).
  void start_all() {
    for (consensus::ProcessId p = 0; p < config_.n; ++p)
      if (!crashed(p)) process(p).start();
  }

  void propose(consensus::ProcessId p, consensus::Value v) {
    monitor_.note_proposal(p, v, step_);
    if (!crashed(p)) process(p).propose(v);
  }

  void crash(consensus::ProcessId p) {
    auto& down = crashed_.at(static_cast<std::size_t>(p));
    if (!down) {
      down = true;
      --up_;
      if (armed_timers(p) > 0) --ready_;
    }
    monitor_.note_crash(p, step_);
  }

  /// Crash p *mid-step*: additionally drops p's undelivered messages, as if
  /// the crash hit between p's local transition and its sends.
  void crash_suppressing_outbox(consensus::ProcessId p) {
    crash(p);
    std::erase_if(pool_, [&](const Pending& m) { return m.from == p; });
  }

  [[nodiscard]] const std::vector<Pending>& pool() const noexcept { return pool_; }

  /// Delivers the i-th pending message (0-based) regardless of destination;
  /// a message to a crashed process is consumed without effect.
  void deliver_index(std::size_t i) {
    if (i >= pool_.size()) throw std::out_of_range("DirectDrive: no such pending message");
    const Pending m = std::move(pool_[i]);
    pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(i));
    ++step_;
    if (!crashed(m.to)) process(m.to).on_message(m.from, m.msg);
  }

  /// Delivers (in pool order) every pending message matching `pred`,
  /// including messages generated while doing so.  Returns the number
  /// delivered.  `limit` < 0 means unlimited.
  template <typename Pred>
  int deliver_where(Pred pred, int limit = -1) {
    int delivered = 0;
    bool progress = true;
    while (progress && (limit < 0 || delivered < limit)) {
      progress = false;
      for (std::size_t i = 0; i < pool_.size(); ++i) {
        if (!pred(pool_[i])) continue;
        deliver_index(i);
        ++delivered;
        progress = true;
        break;
      }
    }
    return delivered;
  }

  /// Delivers everything (FIFO) until the pool drains or `max_steps` is hit.
  int deliver_all(int max_steps = 1000000) {
    int delivered = 0;
    while (!pool_.empty() && delivered < max_steps) {
      deliver_index(0);
      ++delivered;
    }
    return delivered;
  }

  /// Drops pending messages matching `pred`.  Links are reliable, so this is
  /// only legitimate for messages from crashed senders (mid-step crashes);
  /// the splicing scenarios use crash_suppressing_outbox instead where
  /// possible.
  template <typename Pred>
  int drop_where(Pred pred) {
    const auto before = pool_.size();
    std::erase_if(pool_, pred);
    return static_cast<int>(before - pool_.size());
  }

  // ---- explicit fault actions (chaos exploration) ----
  //
  // The explorer's fault budgets surface these as schedule actions, so a
  // violating schedule that injects faults replays exactly: the fault
  // decisions live in the action indices, not in hidden rng draws.

  /// Drops the i-th pending message (an injected link fault).
  void drop_index(std::size_t i) {
    if (i >= pool_.size()) throw std::out_of_range("DirectDrive: no such pending message");
    pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(i));
    ++step_;
    ++injected_drops_;
  }

  /// Duplicates the i-th pending message: the copy lands at the back of the
  /// pool with a fresh sequence number, as an independently deliverable
  /// (and droppable) message.
  void duplicate_index(std::size_t i) {
    if (i >= pool_.size()) throw std::out_of_range("DirectDrive: no such pending message");
    Pending copy = pool_[i];
    copy.seq = next_seq_++;
    pool_.push_back(std::move(copy));
    ++step_;
    ++injected_dups_;
  }

  /// Momentary partition of p: every pending message to or from p is lost.
  /// Returns the number dropped.
  int drop_all_for(consensus::ProcessId p) {
    const auto before = pool_.size();
    std::erase_if(pool_, [&](const Pending& m) { return m.from == p || m.to == p; });
    ++step_;
    ++injected_partitions_;
    return static_cast<int>(before - pool_.size());
  }

  [[nodiscard]] int injected_drops() const noexcept { return injected_drops_; }
  [[nodiscard]] int injected_duplicates() const noexcept { return injected_dups_; }
  [[nodiscard]] int injected_partitions() const noexcept { return injected_partitions_; }

  /// Number of armed timers at p.
  [[nodiscard]] int armed_timers(consensus::ProcessId p) const {
    return armed_[static_cast<std::size_t>(p)];
  }

  /// Fires p's oldest armed timer.  Returns false if p has none or crashed.
  bool fire_next_timer(consensus::ProcessId p) {
    for (std::size_t i = 0; i < timers_.size(); ++i) {
      if (timers_[i].owner != p) continue;
      const consensus::TimerId id = timers_[i].id;
      timers_.erase(timers_.begin() + static_cast<std::ptrdiff_t>(i));
      disarm(p);
      ++step_;
      if (crashed(p)) return false;
      process(p).on_timer(id);
      return true;
    }
    return false;
  }

  /// Logical step counter (used as the monitor's clock).
  [[nodiscard]] sim::Tick step() const noexcept { return step_; }

 private:
  struct ArmedTimer {
    consensus::ProcessId owner;
    consensus::TimerId id;
  };

  void arm(consensus::ProcessId p) {
    if (armed_[static_cast<std::size_t>(p)]++ == 0 && !crashed(p)) ++ready_;
  }
  void disarm(consensus::ProcessId p) {
    if (--armed_[static_cast<std::size_t>(p)] == 0 && !crashed(p)) --ready_;
  }

  class DriveEnv final : public consensus::Env<Msg> {
   public:
    DriveEnv(DirectDrive& drive, consensus::ProcessId self) : drive_(drive), self_(self) {}

    [[nodiscard]] consensus::ProcessId self() const override { return self_; }
    [[nodiscard]] int cluster_size() const override { return drive_.config_.n; }
    [[nodiscard]] sim::Tick now() const override { return drive_.step_; }

    void send(consensus::ProcessId to, const Msg& msg) override {
      if (to < 0 || to >= drive_.config_.n)
        throw std::out_of_range("DirectDrive: bad destination");
      if (drive_.crashed(self_)) return;
      drive_.pool_.push_back(Pending{drive_.next_seq_++, self_, to, msg});
    }

    consensus::TimerId set_timer(sim::Tick) override {
      const consensus::TimerId id{drive_.next_timer_++};
      drive_.timers_.push_back(ArmedTimer{self_, id});
      drive_.arm(self_);
      return id;
    }

    void cancel_timer(consensus::TimerId id) override {
      std::erase_if(drive_.timers_, [&](const ArmedTimer& t) {
        if (t.id != id) return false;
        drive_.disarm(t.owner);
        return true;
      });
    }

   private:
    DirectDrive& drive_;
    consensus::ProcessId self_;
  };

  consensus::SystemConfig config_;
  consensus::ConsensusMonitor monitor_;
  std::vector<std::unique_ptr<DriveEnv>> envs_;
  std::vector<std::unique_ptr<P>> processes_;
  std::vector<std::uint8_t> crashed_;
  std::vector<Pending> pool_;
  std::vector<ArmedTimer> timers_;
  std::vector<int> armed_;  ///< per-process count of timers_ entries
  int up_ = 0;               ///< processes not crashed
  int ready_ = 0;            ///< processes not crashed with armed_ > 0
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_timer_ = 1;
  sim::Tick step_ = 0;
  int injected_drops_ = 0;
  int injected_dups_ = 0;
  int injected_partitions_ = 0;
};

}  // namespace twostep::modelcheck
