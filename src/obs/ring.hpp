// Ring<T>: the bounded recording buffer shared by the simulator's RunTracer
// and the live FlightRecorder.  It keeps the newest `capacity` items and
// evicts the oldest.  Storage grows on demand up to the capacity, so a short
// run stays small, unless the owner reserve()s it all up front to keep
// allocation off its hot path.  Not synchronised: the owner locks if it must.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace twostep::obs {

template <typename T>
class Ring {
 public:
  /// `capacity` must be > 0 (the owners validate it).
  explicit Ring(std::size_t capacity) : capacity_(capacity) {}

  /// Allocates storage for the full capacity now, so push() never allocates.
  void reserve() { items_.reserve(capacity_); }

  void push(const T& item) {
    if (items_.size() < capacity_) {
      items_.push_back(item);
    } else {
      items_[next_] = item;
    }
    next_ = (next_ + 1) % capacity_;
    ++pushed_;
  }

  /// Retained items, oldest first.
  [[nodiscard]] std::vector<T> items() const {
    if (items_.size() < capacity_) return items_;  // never wrapped
    std::vector<T> out(items_.begin() + static_cast<std::ptrdiff_t>(next_), items_.end());
    out.insert(out.end(), items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(next_));
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Items ever pushed since construction or clear(), evicted ones included.
  [[nodiscard]] std::uint64_t pushed() const noexcept { return pushed_; }

  void clear() noexcept {
    items_.clear();
    next_ = 0;
    pushed_ = 0;
  }

 private:
  std::vector<T> items_;
  std::size_t capacity_;
  std::size_t next_ = 0;  ///< slot the next item lands in
  std::uint64_t pushed_ = 0;
};

}  // namespace twostep::obs
