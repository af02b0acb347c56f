// R1 — Consensus under chaos: fast-path survival and recovery latency as a
// function of the message-drop rate.
//
// A single proposer (p0) runs the object protocol at its bound (n = 5,
// e = 2, f = 2) over a network governed by a seeded FaultPlan, with a
// ReliableChannel restoring Definition 2's reliable links through
// retransmission.  Per drop rate we run many seeded trials and report how
// often the fast path (decision at 2Δ) survives the losses, the latency of
// the slow-path recovery when it does not, and what the reliability layer
// paid in retransmissions.  Safety must hold in every run at every rate.
//
// Determinism: trial k at rate index r uses seed splitmix64(kBaseSeed,
// r * 1000 + k) for both the fault plan and the run, so the table is
// byte-identical across hosts and TWOSTEP_BENCH_JOBS values.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "faults/fault_plan.hpp"
#include "util/rng.hpp"

namespace {

using namespace twostep;
using consensus::ProcessId;
using consensus::SystemConfig;
using consensus::Value;

constexpr sim::Tick kDelta = 100;
constexpr std::uint64_t kBaseSeed = 2026;
constexpr int kTrialsPerRate = 50;
const std::vector<double> kDropRates = {0.0, 0.05, 0.10, 0.20};

struct Trial {
  bool safe = true;
  bool decided = false;    // every correct process decided
  bool fast = false;       // the proposer decided at <= 2Δ
  double latency = 0;      // max decision time over correct processes, in Δ
  std::uint64_t retransmits = 0;
};

Trial run_trial(double drop_rate, std::uint64_t seed) {
  const SystemConfig cfg{5, 2, 2};  // the object bound for e=2, f=2
  auto plan = std::make_shared<faults::FaultPlan>(seed);
  if (drop_rate > 0) plan->drop(drop_rate);
  auto r = harness::RunSpec(cfg)
               .delta(kDelta)
               .seed(seed)
               .fault_plan(plan)
               .reliable()
               .core(core::Mode::kObject);
  r->cluster().start_all();
  r->cluster().propose(0, Value{1000});  // uncontended: the fast path is live
  r->cluster().run();

  Trial t;
  t.safe = r->monitor().safe();
  t.decided = true;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    const auto when = r->monitor().decision_time(p);
    if (!when) {
      t.decided = false;
      continue;
    }
    t.latency = std::max(t.latency, static_cast<double>(*when) / kDelta);
    if (p == 0) t.fast = *when <= 2 * kDelta;
  }
  t.retransmits = r->cluster().reliable_channel()->retransmits();
  return t;
}

struct Row {
  double rate = 0;
  int decided = 0;
  int fast = 0;
  double mean_latency = 0;
  double p99_latency = 0;
  double mean_retransmits = 0;
  bool safe = true;
};

Row measure_rate(std::size_t rate_index) {
  Row row;
  row.rate = kDropRates[rate_index];
  std::vector<double> latencies;
  std::uint64_t retransmits = 0;
  for (int k = 0; k < kTrialsPerRate; ++k) {
    const std::uint64_t seed =
        util::splitmix64(kBaseSeed, static_cast<std::uint64_t>(rate_index) * 1000 +
                                        static_cast<std::uint64_t>(k));
    const Trial t = run_trial(row.rate, seed);
    row.safe = row.safe && t.safe;
    if (t.decided) {
      ++row.decided;
      latencies.push_back(t.latency);
    }
    if (t.fast) ++row.fast;
    retransmits += t.retransmits;
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    for (double l : latencies) row.mean_latency += l;
    row.mean_latency /= static_cast<double>(latencies.size());
    const std::size_t p99 =
        std::min(latencies.size() - 1, (latencies.size() * 99 + 99) / 100);
    row.p99_latency = latencies[p99];
  }
  row.mean_retransmits = static_cast<double>(retransmits) / kTrialsPerRate;
  return row;
}

void print_tables() {
  util::Table t({"drop rate", "runs", "decided", "fast path", "mean latency (Δ)",
                 "p99 latency (Δ)", "mean retransmits", "safe"});
  t.set_title("R1 — chaos: fast-path rate and recovery latency vs message loss "
              "(object protocol, n=5 e=2 f=2, single proposer, reliable channel)");
  const std::vector<Row> rows =
      twostep::bench::sweep_rows<Row>(kDropRates.size(), measure_rate);
  for (const Row& row : rows) {
    t.add_row({util::Table::num(row.rate, 2), std::to_string(kTrialsPerRate),
               std::to_string(row.decided), std::to_string(row.fast),
               util::Table::num(row.mean_latency, 2), util::Table::num(row.p99_latency, 2),
               util::Table::num(row.mean_retransmits, 1), row.safe ? "yes" : "NO"});
  }
  twostep::bench::emit(t);
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
