// The live safety audit: the paper's Agreement and Validity, plus the
// durability the WAL discipline promises, checked over the applied logs a
// finished live run leaves behind.  Every live driver runs this one check
// (twostep_cli localcluster / chaossoak / loadgen, benches N2 / N5 / N6);
// perfbench/checks.cpp keeps its own, independent oracle.
//
//   agreement   every two non-empty logs agree slot for slot where they
//               overlap (a replica healed by snapshot transfer, or restarted
//               past a compaction, applies only from its snapshot floor, so
//               its log is a slot-offset suffix of the others);
//   validity    every applied payload was issued by the workload;
//   durability  every acknowledged payload is in the longest log.
//
// Client semantics are at-least-once across a proxy crash, so a payload
// may appear twice in a log; divergence, foreign payloads and lost acked
// payloads may not.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "node/local_cluster.hpp"
#include "rsm/rsm.hpp"

namespace twostep::node {

/// (slot, command) pairs in apply order, as Runtime::applied_log returns.
using AppliedLog = std::vector<std::pair<std::int32_t, std::int64_t>>;

/// Audits one run: `logs` holds each replica's applied log (empty for a
/// dead replica), `acked` the payloads the clients saw acknowledged, and
/// `issued` says whether the workload ever sent a payload.  Payloads are
/// commands with the proxy tag stripped (rsm::RsmProcess::command_payload).
/// Returns one line per violation; empty means the run was safe.
inline std::vector<std::string> audit(const std::vector<AppliedLog>& logs,
                                      const std::vector<std::int64_t>& acked,
                                      const std::function<bool(std::int64_t)>& issued) {
  std::vector<std::string> violations;
  for (std::size_t p = 0; p < logs.size(); ++p)
    for (std::size_t q = p + 1; q < logs.size(); ++q) {
      const AppliedLog& a = logs[p];
      const AppliedLog& b = logs[q];
      if (a.empty() || b.empty()) continue;
      // Both logs apply in slot order: skip each to the later first slot,
      // then the overlap must match entry by entry.
      const std::int32_t from = std::max(a.front().first, b.front().first);
      const auto starts_at = [from](const auto& entry) { return entry.first >= from; };
      const auto [at_a, at_b] = std::mismatch(std::ranges::find_if(a, starts_at), a.end(),
                                              std::ranges::find_if(b, starts_at), b.end());
      if (at_a != a.end() && at_b != b.end())
        violations.push_back("agreement: replica " + std::to_string(q) +
                             " diverges from replica " + std::to_string(p) +
                             " at applied index " + std::to_string(at_b - b.begin()));
    }
  for (std::size_t p = 0; p < logs.size(); ++p)
    for (const auto& [slot, cmd] : logs[p])
      if (const std::int64_t payload = rsm::RsmProcess::command_payload(cmd); !issued(payload)) {
        violations.push_back("validity: replica " + std::to_string(p) + " applied slot " +
                             std::to_string(slot) + " with un-issued payload " +
                             std::to_string(payload));
        break;
      }
  const auto longest = std::ranges::max_element(logs, {}, &AppliedLog::size);
  std::unordered_set<std::int64_t> applied;
  if (longest != logs.end())
    for (const auto& [slot, cmd] : *longest) applied.insert(rsm::RsmProcess::command_payload(cmd));
  const auto lost = std::ranges::count_if(
      acked, [&applied](std::int64_t payload) { return !applied.contains(payload); });
  if (lost > 0)
    violations.push_back("durability: " + std::to_string(lost) +
                         " acknowledged command(s) missing from the longest applied log");
  return violations;
}

/// Every replica's applied log, in id order; empty for a dead replica.
template <typename P>
std::vector<AppliedLog> applied_logs(LocalCluster<P>& cluster) {
  std::vector<AppliedLog> logs;
  for (int p = 0; p < cluster.size(); ++p)
    logs.push_back(cluster.alive(p) ? cluster.node(p).applied_log() : AppliedLog{});
  return logs;
}

/// Lets the trailing Decides of a finished workload propagate: waits until
/// every live replica that has not been removed has applied every payload
/// in `acked` and, when `joiner` >= 0, the joiner's applied head has
/// reached the founders' (a joiner applies from its snapshot floor, so
/// payloads compacted below it never show in its log).  A size check
/// would not do: at-least-once duplicates can fill a log while the last
/// commands are still being recovered.  Returns whether the cluster
/// settled within `timeout`.
template <typename P>
bool drain(LocalCluster<P>& cluster, const std::vector<std::int64_t>& acked, int joiner = -1,
           std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    bool settled = true;
    std::int32_t founder_head = -1;
    std::int32_t joiner_head = -1;
    for (int p = 0; p < cluster.size() && settled; ++p) {
      if (cluster.removed(p) || !cluster.alive(p)) continue;
      const AppliedLog log = cluster.node(p).applied_log();
      const std::int32_t head = log.empty() ? -1 : log.back().first;
      if (p == joiner) {
        joiner_head = head;
        continue;
      }
      founder_head = std::max(founder_head, head);
      std::unordered_set<std::int64_t> applied;
      for (const auto& [slot, cmd] : log) applied.insert(rsm::RsmProcess::command_payload(cmd));
      settled = std::ranges::all_of(
          acked, [&applied](std::int64_t payload) { return applied.contains(payload); });
    }
    if (settled && (joiner < 0 || (joiner_head >= 0 && joiner_head >= founder_head)))
      return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace twostep::node
