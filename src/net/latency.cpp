#include "net/latency.hpp"

#include <algorithm>

namespace twostep::net {

WanMatrix::WanMatrix(const geo::LatencyMatrix& matrix, const std::vector<int>& placement)
    : sites_(static_cast<int>(placement.size())), jitter_(matrix.jitter_us() / kUsPerTick) {
  one_way_.reserve(placement.size() * placement.size());
  for (const int from : placement)
    for (const int to : placement) {
      one_way_.push_back(std::max<sim::Tick>(1, matrix.one_way_us(from, to) / kUsPerTick));
      delta_ = std::max(delta_, one_way_.back());
    }
  delta_ += jitter_;
}

sim::Tick WanMatrix::delivery_time(sim::Tick now, consensus::ProcessId from,
                                   consensus::ProcessId to, util::Rng& rng) const {
  if (from < 0 || from >= sites_ || to < 0 || to >= sites_)
    throw std::out_of_range("WanMatrix: site index out of range");
  const sim::Tick base = one_way_[static_cast<std::size_t>(from * sites_ + to)];
  const sim::Tick jitter = jitter_ > 0 ? rng.next_in(0, jitter_) : 0;
  return now + base + jitter;
}

}  // namespace twostep::net
