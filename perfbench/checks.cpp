// Correctness checks over the workloads' outputs, and the self-test that
// feeds each check a corrupted output and requires a rejection.  The
// checks test properties the method must have (agreement, exactly-once,
// real-time order, the theorems' bounds), never a recorded copy of an
// earlier run's output.
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {

std::string check_logs_match_issue_order(const std::vector<std::vector<std::int64_t>>& logs,
                                         const std::vector<std::int64_t>& issue_order) {
  for (std::size_t r = 0; r < logs.size(); ++r) {
    const auto& log = logs[r];
    if (log.size() != issue_order.size())
      return "replica " + std::to_string(r) + " applied " + std::to_string(log.size()) +
             " commands, client issued " + std::to_string(issue_order.size());
    for (std::size_t i = 0; i < log.size(); ++i)
      if (log[i] != issue_order[i])
        return "replica " + std::to_string(r) + " log differs from issue order at " +
               std::to_string(i);
  }
  return {};
}

std::string check_open_loop_log(const std::vector<std::vector<std::int64_t>>& logs,
                                const std::vector<Issued>& acked) {
  if (logs.empty()) return "no replica logs";
  for (std::size_t r = 1; r < logs.size(); ++r)
    if (logs[r] != logs[0]) return "replica " + std::to_string(r) + " log differs from replica 0";
  const auto& log = logs[0];
  std::unordered_map<std::int64_t, std::size_t> pos;
  pos.reserve(log.size());
  for (std::size_t i = 0; i < log.size(); ++i)
    if (!pos.emplace(log[i], i).second)
      return "payload " + std::to_string(log[i]) + " applied twice";
  if (log.size() != acked.size())
    return "log holds " + std::to_string(log.size()) + " commands, " +
           std::to_string(acked.size()) + " were issued and acknowledged";
  for (const Issued& c : acked)
    if (!pos.contains(c.payload)) return "payload " + std::to_string(c.payload) + " missing";
  // Real-time order: sweep commands by issue time, folding in every command
  // acknowledged strictly before; each must sit after all of those.
  std::vector<const Issued*> by_issue, by_ack;
  for (const Issued& c : acked) {
    by_issue.push_back(&c);
    by_ack.push_back(&c);
  }
  std::sort(by_issue.begin(), by_issue.end(),
            [](const Issued* a, const Issued* b) { return a->issued_at < b->issued_at; });
  std::sort(by_ack.begin(), by_ack.end(),
            [](const Issued* a, const Issued* b) { return a->acked_at < b->acked_at; });
  std::size_t k = 0;
  std::int64_t latest = -1;  // highest log position among commands acked so far
  std::int64_t latest_payload = 0;
  for (const Issued* b : by_issue) {
    while (k < by_ack.size() && by_ack[k]->acked_at < b->issued_at) {
      const auto p = static_cast<std::int64_t>(pos[by_ack[k]->payload]);
      if (p > latest) {
        latest = p;
        latest_payload = by_ack[k]->payload;
      }
      ++k;
    }
    if (latest >= static_cast<std::int64_t>(pos[b->payload]))
      return "real-time order: " + std::to_string(latest_payload) + " was acknowledged before " +
             std::to_string(b->payload) + " was issued but is applied after it";
  }
  return {};
}

int task_bound(int e, int f) { return std::max(2 * e + f, 2 * f + 1); }
int object_bound(int e, int f) { return std::max(2 * e + f - 1, 2 * f + 1); }

std::string check_verdict(const Verdict& v) {
  const int bound = v.object ? object_bound(v.e, v.f) : task_bound(v.e, v.f);
  const std::string what = std::string(v.object ? "object" : "task") + " n=" +
                           std::to_string(v.n) + " e=" + std::to_string(v.e) +
                           " f=" + std::to_string(v.f) + " (bound " + std::to_string(bound) + ")";
  if (v.n < bound && !v.violation) return what + ": no violation below the bound";
  if (v.n >= bound && v.violation) return what + ": violation at or above the bound";
  if (v.exhaustive && !v.exhausted) return what + ": exhaustive search did not finish";
  return {};
}

namespace {

int expect_rejected(const char* name, const std::string& verdict) {
  std::printf("self-test %-28s %s\n", name, verdict.empty() ? "ACCEPTED (bad)" : "rejected");
  if (!verdict.empty()) std::printf("  reason: %s\n", verdict.c_str());
  return verdict.empty() ? 1 : 0;
}

int expect_accepted(const char* name, const std::string& verdict) {
  std::printf("self-test %-28s %s\n", name, verdict.empty() ? "accepted" : "REJECTED (bad)");
  if (!verdict.empty()) std::printf("  reason: %s\n", verdict.c_str());
  return verdict.empty() ? 0 : 1;
}

}  // namespace

int self_test() {
  int bad = 0;
  // A clean closed-loop history, then a swapped pair in one replica's log.
  const std::vector<std::int64_t> issued = {11, 12, 13, 14, 15};
  bad += expect_accepted("closed-loop clean", check_logs_match_issue_order({issued, issued, issued},
                                                                           issued));
  auto swapped = issued;
  std::swap(swapped[1], swapped[2]);
  bad += expect_rejected("swapped pair", check_logs_match_issue_order({issued, swapped, issued},
                                                                      issued));

  // A clean open-loop history: 1 and 2 overlap, 3 is issued after 1's ack.
  const std::vector<Issued> acked = {{1, 0, 50}, {2, 10, 40}, {3, 60, 90}, {4, 70, 95}};
  const std::vector<std::int64_t> log = {2, 1, 3, 4};
  bad += expect_accepted("open-loop clean", check_open_loop_log({log, log, log}, acked));
  const std::vector<std::int64_t> missing = {2, 1, 4};
  bad += expect_rejected("missing payload", check_open_loop_log({missing, missing, missing}, acked));
  const std::vector<std::int64_t> duplicated = {2, 1, 3, 3, 4};
  bad += expect_rejected("duplicated payload",
                         check_open_loop_log({duplicated, duplicated, duplicated}, acked));
  const std::vector<std::int64_t> inverted = {3, 2, 1, 4};  // 3 issued after 1 was acked
  bad += expect_rejected("real-time inversion",
                         check_open_loop_log({inverted, inverted, inverted}, acked));
  bad += expect_rejected("divergent replicas", check_open_loop_log({log, inverted, log}, acked));

  // Verdicts: the theorem says n=5, e=2, f=2 task is unsafe and object safe.
  bad += expect_accepted("verdicts per theorem",
                         check_verdict({false, 5, 2, 2, true, false, false}) +
                             check_verdict({true, 5, 2, 2, false, false, false}) +
                             check_verdict({false, 3, 1, 1, false, true, true}));
  bad += expect_rejected("task below bound, safe", check_verdict({false, 5, 2, 2, false, false, false}));
  bad += expect_rejected("object at bound, unsafe", check_verdict({true, 5, 2, 2, true, false, false}));
  bad += expect_rejected("unfinished exhaustive search",
                         check_verdict({false, 3, 1, 1, false, true, false}));
  std::printf("self-test: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
