// Shared declarations of the benchmark program: run options, the result
// every workload fills in, and small measurement helpers.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch_dir;  ///< WAL storage root (inside the checkout)
};

/// One metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload hands back: the operation counts, the correctness
/// verdict (with a reason when false), per-layer metrics, and the raw
/// samples the end-to-end metrics are computed from once every share of
/// the run has reported (see run_shares):
///   job_us     modelcheck: the wall time of this share's one job
///   win_p50_us, win_p90_us
///              the live workloads' latency quantiles of each window of
///              kWindowCommands consecutive measured commands; a run
///              reports their medians over every window of every share,
///              so a slow spell of the host that covers less than half
///              of the run's windows cannot move it
///   setup_s    duration of each set-up
struct Outcome {
  bool correct = true;
  std::string why;  ///< first failed check, empty when correct
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::vector<double>> samples;

  void fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void add(const std::string& name, double value) { samples[name].push_back(value); }
};

inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline std::int64_t mono_us() { return mono_ns() / 1000; }

/// Linear-interpolated quantile of raw samples (q in [0,1]); 0 if empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Commands per latency window of the live workloads (see Outcome).
inline constexpr std::size_t kWindowCommands = 1'000;

/// Shortest decimal text that reads back as exactly `v`.
inline std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Distinct command payloads for one run: a seed-derived high part and a
/// running index, unique by construction and inside the RSM's batched
/// payload range (< 2^39).
inline std::int64_t payload_of(std::uint64_t seed_base, std::int64_t index) {
  return static_cast<std::int64_t>(seed_base) | index;
}
std::uint64_t payload_base(std::uint64_t seed);

// ---- workloads: one share of a run, in its own process ----
Outcome run_closed_fastpath(const RunOptions& opt);
Outcome run_open_batched(const RunOptions& opt);
/// Runs one verification job, whatever opt.seconds says.
Outcome run_modelcheck(const RunOptions& opt);

/// Runs `fn` in `shares` forked children, one after another, each with
/// opt.seconds / shares, a seed derived from opt.seed, and child k pinned
/// to the k-th allowed CPU (cyclically); shares == 0 starts
/// children, pinned the same way, until opt.seconds is used up, in rounds
/// of one child per allowed CPU.  Turns the children's samples into the
/// end-to-end metrics (trace off) and takes the median of each per-layer
/// metric over the shares (trace on).
Outcome run_shares(Outcome (*fn)(const RunOptions&), const RunOptions& opt, int shares);

// ---- standalone layer probes (traced runs only) ----
void probe_layers(Outcome& out, const std::string& scratch);

/// Flight-recorder spans whose self time the traced run reports.
inline constexpr const char* kSpanNames[] = {"client.call", "serve",  "Propose",
                                             "2B",          "Decide", "wal.fsync"};

/// Per-layer metric names every traced run prints; a layer the workload
/// bypasses reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// ---- correctness checks (pure functions, exercised by --self-test) ----

/// One command as the generator saw it: payload, the instant it was
/// issued (due instant for the open loop) and the instant its ack arrived.
struct Issued {
  std::int64_t payload = 0;
  std::int64_t issued_at = 0;
  std::int64_t acked_at = 0;
};

/// Every replica's applied log equals `issue_order` exactly.  Returns an
/// empty string on success, else the first discrepancy.
std::string check_logs_match_issue_order(const std::vector<std::vector<std::int64_t>>& logs,
                                         const std::vector<std::int64_t>& issue_order);

/// The replicas' logs are identical; every acknowledged payload appears
/// exactly once and nothing else appears; and a command acknowledged
/// before another was issued precedes it in the log.
std::string check_open_loop_log(const std::vector<std::vector<std::int64_t>>& logs,
                                const std::vector<Issued>& acked);

/// Bounds of Theorems 5 and 6 as the benchmark computes them.
int task_bound(int e, int f);
int object_bound(int e, int f);

/// A verdict of the model checker: whether it found a violation in a
/// configuration of `n` processes for protocol `object` (else task).
struct Verdict {
  bool object = false;
  int n = 0, e = 0, f = 0;
  bool violation = false;
  bool exhaustive = false;  ///< the verdict comes from an exhaustive search...
  bool exhausted = false;   ///< ...which finished inside its budget
};

/// A violation must exist below the bound and must not exist at it; an
/// exhaustive search must have finished.
std::string check_verdict(const Verdict& v);

int self_test();

}  // namespace perfbench
