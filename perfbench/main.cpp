// The benchmark program.  Usage:
//
//   perfbench --workload closed_fastpath|open_batched|modelcheck
//             --seed N --seconds S --trace 0|1 [--scratch DIR]
//   perfbench --self-test
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (a separate, traced run).  Each share of a run is pinned
// to one CPU of the set the process was started with (see shares.cpp).
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.hpp"
#include "util/rng.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t payload_base(std::uint64_t seed) {
  // Bits 22..37 from the seed, the low 22 bits left for the running index.
  return (twostep::util::splitmix64(seed, 0x5041ULL) & 0xFFFFULL) << 22;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"transport.frames_per_cmd", "count"},
        {"transport.bytes_per_cmd", "B"},
        {"transport.timer_late_us", "us"},
        {"transport.post_wake_us", "us"},
        {"loop.timer_depth", "count"},
        {"storage.append_us", "us"},
        {"storage.appends_per_cmd", "count"},
        {"storage.records_per_barrier", "count"},
        {"node.serve_us", "us"},
        {"node.deliver_us", "us"},
        {"loop.work_us", "us"},
        {"rsm.cmds_per_slot", "count"},
        {"rsm.slow_decisions", "count"},
        {"rsm.slot_us", "us"},
        {"core.select_value_ns", "ns"},
        {"modelcheck.schedules", "count"},
        {"modelcheck.steps", "count"},
        {"modelcheck.steps_per_s", "1/s"},
        {"gen.lag_p90_us", "us"},
        {"obs.trace_overhead_us", "us"},
    };
    for (const char* kind : {"client_request", "client_reply", "propose", "vote_2b", "decide",
                             "batch_content"}) {
      v.emplace_back(std::string("codec.encode_ns.") + kind, "ns");
      v.emplace_back(std::string("codec.decode_ns.") + kind, "ns");
    }
    for (const char* span : kSpanNames)
      v.emplace_back(std::string("span.") + span + ".self_us", "us");
    return v;
  }();
  return kNames;
}

namespace {

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"setup_s", "s"}, {"op_p50_us", "us"}, {"op_p90_us", "us"}, {"peak_rss_mb", "MB"},
  };
  return kNames;
}

void print_result(const Outcome& out, bool trace) {
  const auto& names = trace ? per_layer_metrics() : end_to_end_metrics();
  std::string line = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = out.metrics.find(name);
    const double value = it == out.metrics.end() ? 0.0 : it->second.value;
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + number(value) +
            ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  line += "}}";
  if (!out.correct) std::fprintf(stderr, "perfbench: check failed: %s\n", out.why.c_str());
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload closed_fastpath|open_batched|modelcheck --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  opt.scratch_dir = ".bench_scratch";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || opt.seconds <= 0) return usage();
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage();
      opt.trace = val == "1";
    } else if (arg == "--scratch") {
      opt.scratch_dir = val;
    } else {
      return usage();
    }
  }
  // The live workloads split a run into kLiveShares processes; the model
  // checker runs one job per process, in rounds of one process per CPU,
  // until the run's time is used up.
  constexpr int kLiveShares = 5;
  Outcome (*run)(const RunOptions&) = nullptr;
  int shares = kLiveShares;
  if (opt.workload == "closed_fastpath") run = run_closed_fastpath;
  if (opt.workload == "open_batched") run = run_open_batched;
  if (opt.workload == "modelcheck") {
    run = run_modelcheck;
    shares = 0;
  }
  if (!run) return usage();

  try {
    Outcome out = run_shares(run, opt, shares);
    if (opt.trace) probe_layers(out, opt.scratch_dir);
    print_result(out, opt.trace);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
