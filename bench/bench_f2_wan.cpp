// F2 — Wide-area deployment: the practical significance of the bounds.
//
// The paper's motivation: "contacting an additional process may incur a
// cost of hundreds of milliseconds per command" in wide-area deployments.
// At e=2, f=2 the object protocol runs in n=5 regions while Fast Paxos
// needs n=7; both decide on a fast quorum of n-e acceptors, so Fast Paxos
// must hear from 5 regions where the object protocol needs 3.  This bench
// places replicas in public-cloud regions (one-way latency matrix) and
// measures the commit latency at each proxy region for a lone proposal.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "util/stats.hpp"

namespace {

using namespace twostep;
using consensus::ProcessId;
using consensus::SystemConfig;
using consensus::Value;

constexpr int kE = 2;
constexpr int kF = 2;
constexpr int kSeeds = 20;

const char* kRegion[] = {"us-east", "us-west", "eu-west", "eu-central", "tokyo",
                         "singapore", "mumbai", "sao-paulo", "sydney"};

/// Replicas 0..n-1 in the first n regions of the nine-region table.
std::unique_ptr<net::WanMatrix> wan_model(int n) {
  const geo::LatencyMatrix nine = geo::LatencyMatrix::nine_regions();
  return std::make_unique<net::WanMatrix>(nine, geo::round_robin_placement(n, nine));
}

/// Commit latency (ms) at the proxy for a lone proposal, paper protocol.
/// nullopt when the run ended without a decision at the proxy — the caller
/// must skip (and count) it, never average it: a -1 sentinel inside a mean
/// silently *improves* the reported latency.
std::optional<double> object_latency(int n, ProcessId proxy, std::uint64_t seed) {
  const SystemConfig cfg{n, kF, kE};
  auto model = wan_model(n);
  auto r = harness::RunSpec(cfg).model(std::move(model)).seed(seed).core(core::Mode::kObject);
  consensus::SyncScenario s;
  s.proposals = {{proxy, Value{7}}};
  r->run(s);
  const auto t = r->monitor().decision_time(proxy);
  if (!t) return std::nullopt;
  return static_cast<double>(*t);
}

/// Commit latency (ms) at the proxy for a lone proposal, Fast Paxos.
std::optional<double> fastpaxos_latency(int n, ProcessId proxy, std::uint64_t seed) {
  const SystemConfig cfg{n, kF, kE};
  auto model = wan_model(n);
  auto r = harness::RunSpec(cfg).model(std::move(model)).seed(seed).fastpaxos();
  consensus::SyncScenario s;
  s.proposals = {{proxy, Value{7}}};
  r->run(s);
  const auto t = r->monitor().decision_time(proxy);
  if (!t) return std::nullopt;
  return static_cast<double>(*t);
}

void print_tables() {
  const int n_object = SystemConfig::min_processes_object(kE, kF);      // 5
  const int n_fast = SystemConfig::min_processes_fast_paxos(kE, kF);    // 7

  util::Table t({"proxy region", "object n=5 (ms)", "fast paxos n=7 (ms)", "saving (ms)"});
  t.set_title("F2 — WAN commit latency at the proxy, e=2 f=2 (lone proposal, mean over " +
              std::to_string(kSeeds) + " jitter seeds)");

  // One task per proxy region: each returns its own summaries plus its
  // contribution to the aggregate, merged after the join in proxy order so
  // the printed statistics match a sequential run exactly.  Undecided runs
  // are excluded from every summary and surfaced as an explicit count —
  // both in the table (when non-zero) and in the artifact row.
  struct ProxyResult {
    std::vector<std::string> row;
    util::Summary object, fast;
    util::Summary all_object, all_fast;
    std::int64_t undecided_object = 0, undecided_fast = 0;
  };
  const auto results = twostep::bench::sweep_rows<ProxyResult>(
      static_cast<std::size_t>(n_object), [n_object, n_fast](std::size_t i) {
        const auto proxy = static_cast<ProcessId>(i);
        ProxyResult out;
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
          if (const auto obj = object_latency(n_object, proxy, seed)) {
            out.object.add(*obj);
            out.all_object.add(out.object.max());
          } else {
            ++out.undecided_object;
          }
          if (const auto fp = fastpaxos_latency(n_fast, proxy, seed)) {
            out.fast.add(*fp);
            out.all_fast.add(out.fast.max());
          } else {
            ++out.undecided_fast;
          }
        }
        out.row = {kRegion[proxy], util::Table::num(out.object.mean(), 0),
                   util::Table::num(out.fast.mean(), 0),
                   util::Table::num(out.fast.mean() - out.object.mean(), 0)};
        return out;
      });
  util::Summary all_object, all_fast;
  std::int64_t undecided = 0;
  twostep::bench::BenchArtifact artifact("f2_wan");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ProxyResult& r = results[i];
    t.add_row(r.row);
    all_object.merge(r.all_object);
    all_fast.merge(r.all_fast);
    undecided += r.undecided_object + r.undecided_fast;
    artifact.add_row()
        .str("proxy_region", kRegion[i])
        .num("seeds", std::int64_t{kSeeds})
        .num("object_decided", static_cast<std::int64_t>(r.object.count()))
        .num("object_undecided", r.undecided_object)
        .num("object_mean_ms", r.object.mean())
        .num("fastpaxos_decided", static_cast<std::int64_t>(r.fast.count()))
        .num("fastpaxos_undecided", r.undecided_fast)
        .num("fastpaxos_mean_ms", r.fast.mean())
        .num("saving_ms", r.fast.mean() - r.object.mean());
  }
  twostep::bench::emit(t);
  if (undecided > 0)
    std::printf("F2: %lld undecided run(s) excluded from the latency means\n",
                static_cast<long long>(undecided));

  util::Table s({"metric", "object n=5", "fast paxos n=7"});
  s.set_title("F2b — aggregate over all proxy regions");
  s.add_row({"mean (ms)", util::Table::num(all_object.mean(), 0),
             util::Table::num(all_fast.mean(), 0)});
  s.add_row({"p99 (ms)", util::Table::num(all_object.percentile(0.99), 0),
             util::Table::num(all_fast.percentile(0.99), 0)});
  twostep::bench::emit(s);
  artifact.write();
}

}  // namespace

TWOSTEP_BENCH_MAIN(print_tables)
