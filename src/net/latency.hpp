// Latency models for the simulated network.
//
// The paper's system model is partial synchrony (Dwork-Lynch-Stockmeyer):
// after an unknown global stabilization time GST, every message reaches its
// destination within a known bound Δ.  Its two-step definitions are stated
// over E-faulty *synchronous* runs (Definition 2) in which messages sent in
// round k are delivered precisely at the start of round k+1.  Each latency
// model below realizes one regime; the network asks the model for the
// absolute delivery time of every message.
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "consensus/types.hpp"
#include "geo/latency_matrix.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace twostep::net {

/// Strategy interface deciding when a message sent now from `from` arrives
/// at `to`.  Implementations must return a time >= now (reliable links never
/// lose messages, so there is no "never" answer).
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Absolute delivery time for a message sent at `now`.
  [[nodiscard]] virtual sim::Tick delivery_time(sim::Tick now, consensus::ProcessId from,
                                                consensus::ProcessId to,
                                                util::Rng& rng) const = 0;

  /// The post-GST bound Δ under this model, used by protocols to set timers
  /// and by monitors to evaluate the two-step condition (decide by 2Δ).
  [[nodiscard]] virtual sim::Tick delta() const = 0;
};

/// Definition 2 rounds: a message sent during [kΔ, (k+1)Δ) is delivered at
/// exactly (k+1)Δ.  Local computation is instantaneous, so in these runs
/// every process takes its round-k step at time kΔ.
class SynchronousRounds final : public LatencyModel {
 public:
  explicit SynchronousRounds(sim::Tick delta) : delta_(delta) {
    if (delta <= 0) throw std::invalid_argument("SynchronousRounds: delta must be > 0");
  }

  [[nodiscard]] sim::Tick delivery_time(sim::Tick now, consensus::ProcessId,
                                        consensus::ProcessId, util::Rng&) const override {
    return (now / delta_ + 1) * delta_;
  }

  [[nodiscard]] sim::Tick delta() const override { return delta_; }

 private:
  sim::Tick delta_;
};

/// Every message takes exactly `delay` ticks (delay <= Δ).
class FixedDelay final : public LatencyModel {
 public:
  explicit FixedDelay(sim::Tick delay, sim::Tick delta = 0)
      : delay_(delay), delta_(delta == 0 ? delay : delta) {
    if (delay <= 0 || delta_ < delay)
      throw std::invalid_argument("FixedDelay: need 0 < delay <= delta");
  }

  [[nodiscard]] sim::Tick delivery_time(sim::Tick now, consensus::ProcessId,
                                        consensus::ProcessId, util::Rng&) const override {
    return now + delay_;
  }

  [[nodiscard]] sim::Tick delta() const override { return delta_; }

 private:
  sim::Tick delay_;
  sim::Tick delta_;
};

/// Partial synchrony: before GST the adversary may delay a message up to
/// `chaos_max` ticks, but (per the DLS model) every message is delivered by
/// max(send_time, GST) + Δ.  After GST, delays are uniform in [1, Δ].
class PartialSynchrony final : public LatencyModel {
 public:
  PartialSynchrony(sim::Tick gst, sim::Tick delta, sim::Tick chaos_max)
      : gst_(gst), delta_(delta), chaos_max_(chaos_max) {
    if (gst < 0 || delta <= 0 || chaos_max < delta)
      throw std::invalid_argument("PartialSynchrony: need gst >= 0, delta > 0, chaos >= delta");
  }

  [[nodiscard]] sim::Tick delivery_time(sim::Tick now, consensus::ProcessId,
                                        consensus::ProcessId, util::Rng& rng) const override {
    if (now >= gst_) return now + rng.next_in(1, delta_);
    const sim::Tick chaotic = now + rng.next_in(1, chaos_max_);
    const sim::Tick bound = std::max(now, gst_) + delta_;
    return std::min(chaotic, bound);
  }

  [[nodiscard]] sim::Tick delta() const override { return delta_; }

 private:
  sim::Tick gst_;
  sim::Tick delta_;
  sim::Tick chaos_max_;
};

/// Wide-area deployment: process i sits in region `placement[i]` of a
/// geo::LatencyMatrix, whose one-way delays are read at one tick per
/// millisecond, plus bounded uniform jitter.  Every delay is floored at one
/// tick, because a simulated link needs a positive delay where the live
/// matrix's same-region cells are 0.  Used by the WAN experiments that
/// reproduce the paper's "hundreds of milliseconds per command" motivation.
class WanMatrix final : public LatencyModel {
 public:
  static constexpr std::int64_t kUsPerTick = 1000;

  /// Throws std::out_of_range for a placement entry outside the matrix.
  WanMatrix(const geo::LatencyMatrix& matrix, const std::vector<int>& placement);

  [[nodiscard]] sim::Tick delivery_time(sim::Tick now, consensus::ProcessId from,
                                        consensus::ProcessId to, util::Rng& rng) const override;

  [[nodiscard]] sim::Tick delta() const override { return delta_; }

  [[nodiscard]] int sites() const noexcept { return sites_; }

 private:
  int sites_;
  std::vector<sim::Tick> one_way_;  ///< row-major sites_ x sites_, in ticks
  sim::Tick jitter_;
  sim::Tick delta_ = 0;
};

}  // namespace twostep::net
