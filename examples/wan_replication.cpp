// Geo-replicated state machine: the paper's practical motivation, end to
// end.  Five replicas in five cloud regions run the RSM built on the
// two-step consensus object; clients in each region submit commands to
// their local proxy and we report the proxy-side commit latency.
//
//   $ ./wan_replication
//
// Compare the "fast path" commits (two one-way delays to the 2 nearest of 4
// remote regions) with what a 7-replica Fast Paxos deployment would need
// (run bench_f2_wan for the full comparison).
#include <cstdio>

#include "harness/run_spec.hpp"
#include "util/stats.hpp"

using namespace twostep;
using consensus::ProcessId;
using consensus::SystemConfig;

int main() {
  const SystemConfig config{5, /*f=*/2, /*e=*/2};
  const char* region[] = {"us-east", "us-west", "eu-west", "eu-central", "tokyo"};

  const geo::LatencyMatrix nine = geo::LatencyMatrix::nine_regions();
  auto model =
      std::make_unique<net::WanMatrix>(nine, geo::round_robin_placement(config.n, nine));
  const sim::Tick delta = model->delta();
  auto runner = harness::RunSpec(config).model(std::move(model)).seed(2026).rsm();

  // Each proxy records its own commit latencies.
  std::vector<util::Summary> latency(5);
  for (ProcessId p = 0; p < config.n; ++p) {
    runner->cluster().process(p).on_commit =
        [&latency, &runner, p](rsm::Command, sim::Tick submitted, std::int32_t) {
          latency[static_cast<std::size_t>(p)].add(
              static_cast<double>(runner->cluster().now() - submitted));
        };
  }

  runner->cluster().start_all();

  // One client per region, three commands each, spaced well apart so the
  // fast path is contention-free (the common case for a sharded workload).
  std::int64_t payload = 1;
  sim::Tick at = 0;
  for (int round = 0; round < 3; ++round) {
    for (ProcessId p = 0; p < config.n; ++p) {
      const std::int64_t this_payload = payload++;
      runner->cluster().simulator().schedule_at(at, [&runner, p, this_payload] {
        runner->cluster().process(p).submit(this_payload);
      });
      at += 4 * delta;  // quiesce between commands
    }
  }
  runner->cluster().run();

  std::printf("geo-replicated RSM over two-step consensus (n=5, e=2, f=2)\n");
  std::printf("delta (worst link + jitter) = %lld ms\n\n", static_cast<long long>(delta));
  std::printf("%-12s %10s %10s\n", "proxy", "commits", "mean ms");
  for (ProcessId p = 0; p < config.n; ++p) {
    auto& s = latency[static_cast<std::size_t>(p)];
    std::printf("%-12s %10zu %10.0f\n", region[p], s.count(), s.mean());
  }

  // Logs must be identical at all replicas.
  const auto prefix = runner->cluster().process(0).applied_prefix();
  bool identical = true;
  for (ProcessId p = 1; p < config.n; ++p)
    for (std::int32_t slot = 0; slot < prefix; ++slot)
      identical = identical && runner->cluster().process(p).decision(slot) ==
                                   runner->cluster().process(0).decision(slot);
  std::printf("\nreplicated log: %d slots, %s at all replicas\n", prefix,
              identical ? "identical" : "DIVERGENT");
  return identical ? 0 : 1;
}
