#include "faults/fault_plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace twostep::faults {

const char* drop_event_label(DropReason reason) noexcept {
  switch (reason) {
    case DropReason::kNone: return "drop.none";
    case DropReason::kInjected: return "drop.injected";
    case DropReason::kPartition: return "drop.partition";
  }
  return "drop.?";
}

namespace {
void check_rate(double rate, const char* what) {
  if (rate < 0.0 || rate > 1.0) throw std::invalid_argument(std::string(what) + ": rate must be in [0, 1]");
}
}  // namespace

FaultPlan& FaultPlan::drop(double rate) {
  check_rate(rate, "FaultPlan::drop");
  drop_rate_ = rate;
  return *this;
}

FaultPlan& FaultPlan::duplicate(double rate, int extra_copies) {
  check_rate(rate, "FaultPlan::duplicate");
  if (extra_copies < 1) throw std::invalid_argument("FaultPlan::duplicate: need extra_copies >= 1");
  dup_rate_ = rate;
  dup_extra_copies_ = extra_copies;
  return *this;
}

FaultPlan& FaultPlan::reorder(double rate, sim::Tick max_extra) {
  check_rate(rate, "FaultPlan::reorder");
  if (max_extra < 1) throw std::invalid_argument("FaultPlan::reorder: need max_extra >= 1");
  reorder_rate_ = rate;
  reorder_max_extra_ = max_extra;
  return *this;
}

FaultPlan& FaultPlan::drop_if(LinkPredicate pred) {
  if (!pred) throw std::invalid_argument("FaultPlan::drop_if: null predicate");
  drop_preds_.push_back(std::move(pred));
  return *this;
}

FaultPlan& FaultPlan::duplicate_if(LinkPredicate pred, int extra_copies) {
  if (!pred) throw std::invalid_argument("FaultPlan::duplicate_if: null predicate");
  if (extra_copies < 1)
    throw std::invalid_argument("FaultPlan::duplicate_if: need extra_copies >= 1");
  dup_preds_.emplace_back(std::move(pred), extra_copies);
  return *this;
}

FaultPlan& FaultPlan::partition_link(ProcessId a, ProcessId b, sim::Tick since,
                                     sim::Tick heal_at) {
  Partition p;
  p.a = a;
  p.b = b;
  p.since = since;
  p.heal_at = heal_at;
  partitions_.push_back(std::move(p));
  return *this;
}

FaultPlan& FaultPlan::partition_cut(std::vector<ProcessId> island, sim::Tick since,
                                    sim::Tick heal_at) {
  if (island.empty()) throw std::invalid_argument("FaultPlan::partition_cut: empty island");
  Partition p;
  p.island = std::move(island);
  p.since = since;
  p.heal_at = heal_at;
  partitions_.push_back(std::move(p));
  return *this;
}

FaultPlan& FaultPlan::crash_at(sim::Tick when, ProcessId p) {
  crash_schedule_.push_back(CrashEvent{when, p, /*restart=*/false});
  return *this;
}

FaultPlan& FaultPlan::restart_at(sim::Tick when, ProcessId p) {
  crash_schedule_.push_back(CrashEvent{when, p, /*restart=*/true});
  return *this;
}

FaultPlan& FaultPlan::delay_rule(DelayRule rule) {
  delay_rule_ = std::move(rule);
  return *this;
}

bool FaultPlan::Partition::severs(ProcessId from, ProcessId to) const {
  if (island.empty()) return (from == a && to == b) || (from == b && to == a);
  const bool from_in = std::find(island.begin(), island.end(), from) != island.end();
  const bool to_in = std::find(island.begin(), island.end(), to) != island.end();
  return from_in != to_in;
}

bool FaultPlan::partitioned(sim::Tick now, ProcessId a, ProcessId b) const {
  for (const Partition& p : partitions_)
    if (p.active(now) && p.severs(a, b)) return true;
  return false;
}

FaultPlan::Decision FaultPlan::on_send(sim::Tick now, ProcessId from, ProcessId to,
                                       const void* msg) {
  Decision d;
  if (partitioned(now, from, to)) {
    d.drop = DropReason::kPartition;
    ++injected_drops_;
    return d;
  }
  for (const LinkPredicate& pred : drop_preds_) {
    if (pred(now, from, to)) {
      d.drop = DropReason::kInjected;
      ++injected_drops_;
      return d;
    }
  }
  if (drop_rate_ > 0 && rng_.next_bool(drop_rate_)) {
    d.drop = DropReason::kInjected;
    ++injected_drops_;
    return d;
  }
  for (const auto& [pred, extra] : dup_preds_) {
    if (pred(now, from, to)) d.copies = std::max(d.copies, 1 + extra);
  }
  if (d.copies == 1 && dup_rate_ > 0 && rng_.next_bool(dup_rate_))
    d.copies = 1 + dup_extra_copies_;
  if (d.copies > 1) injected_dups_ += static_cast<std::uint64_t>(d.copies - 1);
  if (reorder_rate_ > 0 && rng_.next_bool(reorder_rate_)) {
    d.extra_delay = rng_.next_in(1, reorder_max_extra_);
    ++injected_reorders_;
  }
  if (delay_rule_) d.forced_time = delay_rule_(now, from, to, msg);
  return d;
}

}  // namespace twostep::faults
