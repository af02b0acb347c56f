// Shared helpers for the benchmark harness binaries.  Every bench prints
// the markdown rows of the table/figure it regenerates (collected into
// EXPERIMENTS.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "consensus/types.hpp"
#include "exec/parallel_sweep.hpp"
#include "harness/run_spec.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace twostep::bench {

/// Prints a finished experiment table to stdout with a blank line around it.
inline void emit(const util::Table& table) {
  std::printf("\n%s\n", table.to_string().c_str());
}

/// True when the TWOSTEP_BENCH_METRICS environment variable is set and
/// non-empty: benches then attach a MetricsRegistry to their experiment runs
/// and dump it via emit_metrics.  Off by default so timings stay clean.
inline bool metrics_enabled() {
  const char* v = std::getenv("TWOSTEP_BENCH_METRICS");
  return v != nullptr && *v != '\0';
}

/// Opt-in metrics dump (no-op unless TWOSTEP_BENCH_METRICS is set): one
/// line of JSON labelled with the experiment/run name.
inline void emit_metrics(const std::string& name, const obs::MetricsRegistry& registry) {
  if (!metrics_enabled()) return;
  std::printf("metrics[%s] %s\n", name.c_str(), registry.to_json().c_str());
}

/// Worker threads for table generation: the TWOSTEP_BENCH_JOBS environment
/// variable, defaulting to 0 (= all hardware threads).  Tables are
/// byte-identical for any value — see exec::parallel_sweep.
inline int bench_jobs() {
  const char* v = std::getenv("TWOSTEP_BENCH_JOBS");
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || parsed < 0 || parsed > 4096) {
    std::fprintf(stderr,
                 "bench: ignoring malformed TWOSTEP_BENCH_JOBS=%s "
                 "(using all hardware threads)\n",
                 v);
    return 0;
  }
  return static_cast<int>(parsed);
}

/// Computes `count` independent results (typically table rows) across
/// bench_jobs() workers and returns them in index order, so emitted tables
/// do not depend on thread count or scheduling.
template <typename Result, typename Fn>
inline std::vector<Result> sweep_rows(std::size_t count, Fn&& fn) {
  exec::SweepOptions options;
  options.jobs = bench_jobs();
  return exec::parallel_sweep<Result>(
      count, [&fn](const exec::SweepTask& task) { return fn(task.index); }, options);
}

// --- Machine-readable bench artifacts (schema twostep-bench/1) ---
//
// A bench mirrors its printed table into one JSON document
//   {"schema": "twostep-bench/1", "bench": "<name>", "rows": [{...}, ...]}
// written as BENCH_<name>.json into $TWOSTEP_BENCH_OUT (or the working
// directory).  Rows are flat objects of numbers, strings, bools and nested
// histogram snapshots, in insertion order — the stable surface scripts and
// CI validate against (see EXPERIMENTS.md "Machine-readable artifacts").

/// One artifact row, built field by field.
class JsonRow {
 public:
  JsonRow& num(std::string_view key, double v) { return field(key, obs::json_number(v)); }
  JsonRow& num(std::string_view key, std::int64_t v) { return field(key, std::to_string(v)); }
  JsonRow& num(std::string_view key, std::uint64_t v) { return field(key, std::to_string(v)); }
  JsonRow& num(std::string_view key, int v) { return field(key, std::to_string(v)); }
  JsonRow& str(std::string_view key, std::string_view v) {
    std::ostringstream os;
    obs::write_json_escaped(os, v);
    return field(key, os.str());
  }
  JsonRow& flag(std::string_view key, bool v) { return field(key, v ? "true" : "false"); }
  /// Nested {"count": .., "mean": .., .., "p999": ..} object.
  JsonRow& hist(std::string_view key, const obs::HistogramSnapshot& s) {
    std::ostringstream os;
    obs::write_json(os, s);
    return field(key, os.str());
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += fields_[i].first + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  JsonRow& field(std::string_view key, std::string rendered) {
    std::ostringstream k;
    obs::write_json_escaped(k, key);
    fields_.emplace_back(k.str(), std::move(rendered));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Artifact output directory: $TWOSTEP_BENCH_OUT, defaulting to the cwd.
inline std::string artifact_dir() {
  const char* v = std::getenv("TWOSTEP_BENCH_OUT");
  return (v != nullptr && *v != '\0') ? std::string(v) : std::string(".");
}

/// Accumulates rows for one bench and writes BENCH_<name>.json.
class BenchArtifact {
 public:
  explicit BenchArtifact(std::string name) : name_(std::move(name)) {}

  /// Appends an empty row and returns it for building.  References stay
  /// valid across further add_row calls (deque storage).
  JsonRow& add_row() { return rows_.emplace_back(); }

  /// Writes the document; prints the path on success, a stderr note on
  /// failure.  Never throws — an unwritable artifact must not sink a bench.
  bool write() const {
    const std::string path = artifact_dir() + "/BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (out) {
      std::ostringstream header;
      obs::write_json_escaped(header, name_);
      out << "{\"schema\":\"twostep-bench/1\",\"bench\":" << header.str() << ",\"rows\":[";
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        if (i > 0) out << ",";
        out << rows_[i].to_json();
      }
      out << "]}\n";
      out.flush();
    }
    if (!out) {
      std::fprintf(stderr, "bench: could not write artifact %s\n", path.c_str());
      return false;
    }
    std::printf("bench artifact: %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::deque<JsonRow> rows_;
};

/// Canonical all-distinct proposal layout: p proposes 100+p, except the
/// designated witness, who proposes the maximum.
inline std::map<consensus::ProcessId, consensus::Value> witness_config(
    int n, consensus::ProcessId witness) {
  std::map<consensus::ProcessId, consensus::Value> initial;
  for (consensus::ProcessId p = 0; p < n; ++p) initial[p] = consensus::Value{100 + p};
  initial[witness] = consensus::Value{1000};
  return initial;
}

/// The standard bench entry point: print the experiment tables.  A bench
/// takes no arguments (its knobs are TWOSTEP_BENCH_* environment variables).
#define TWOSTEP_BENCH_MAIN(print_tables)                                       \
  int main(int argc, char** argv) {                                            \
    if (argc > 1) {                                                            \
      std::fprintf(stderr, "usage: %s (no arguments; see EXPERIMENTS.md)\n", argv[0]); \
      return 1;                                                                \
    }                                                                          \
    print_tables();                                                            \
    return 0;                                                                  \
  }

}  // namespace twostep::bench
