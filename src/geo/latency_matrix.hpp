// Per-link one-way delay matrices, for the live cluster and the simulator.
//
// A geo::LatencyMatrix maps (sender region, receiver region) to a base
// one-way delay in microseconds plus a bounded uniform jitter.  On real
// sockets the transport's ChaosInjector adds that delay to every outbound
// protocol frame; the simulator reads the same matrix through
// net::WanMatrix (F2), at one tick per millisecond.  Replicas are assigned to regions
// by a placement vector (replica index -> region index), so an n-replica
// loopback cluster behaves like an n-site multi-region deployment.
//
// Matrices come from three places:
//   - LatencyMatrix::nine_regions(scale): the nine-region table, scaled,
//   - a preset name ("nine-regions", "us-eu", "global"),
//   - a matrix file (see from_file for the format).
// from_spec() resolves a `--geo <file|preset>` CLI argument by trying the
// preset names first and falling back to the filesystem.
//
// Determinism contract: the matrix itself is pure data.  Jitter draws are
// made by the consumer (ChaosInjector) from per-directed-link seeded
// streams, so the delay sequence on each link is a pure function of
// (matrix, seed, self, to) — independent of how traffic on different links
// interleaves.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace twostep::geo {

class LatencyMatrix {
 public:
  /// `one_way_us[i][j]` is the base one-way delay, in microseconds, from
  /// region i to region j.  The matrix must be square and non-empty, every
  /// cell must be >= 0 (intra-region cells may be 0: loopback is the
  /// baseline), and jitter_us must be >= 0.  Throws std::invalid_argument.
  LatencyMatrix(std::vector<std::string> regions,
                std::vector<std::vector<std::int64_t>> one_way_us, std::int64_t jitter_us = 0);

  [[nodiscard]] std::size_t size() const noexcept { return regions_.size(); }
  [[nodiscard]] const std::vector<std::string>& regions() const noexcept { return regions_; }
  [[nodiscard]] std::int64_t jitter_us() const noexcept { return jitter_us_; }
  [[nodiscard]] std::int64_t max_one_way_us() const noexcept { return max_one_way_us_; }

  /// Base one-way delay from region `from` to region `to` (bounds-checked;
  /// throws std::out_of_range).
  [[nodiscard]] std::int64_t one_way_us(int from, int to) const;

  /// Index of the named region, or -1 if this matrix has no such region.
  [[nodiscard]] int region_index(std::string_view name) const noexcept;

  /// The nine-region table (one-way delays between nine public-cloud
  /// regions, with 2 ms of jitter) in microseconds, multiplied by `scale`.
  /// scale < 1 compresses the WAN for fast smoke runs (0.01 turns 75 ms
  /// links into 750 µs links) without changing the *shape* of the topology.  Intra-region delay is 0 (loopback baseline).
  static LatencyMatrix nine_regions(double scale = 1.0);

  /// Named subsets of the nine-region table:
  ///   "nine-regions"  all nine regions
  ///   "us-eu"         us-east, us-west, eu-west, eu-central
  ///   "global"        us-east, eu-west, ap-northeast, sa-east, au-southeast
  /// Throws std::invalid_argument for unknown names; is_preset() probes.
  static LatencyMatrix preset(std::string_view name, double scale = 1.0);
  [[nodiscard]] static bool is_preset(std::string_view name) noexcept;

  /// Loads a matrix file.  Format, line oriented; '#' starts a comment:
  ///
  ///   regions us-east eu-west tokyo     # R region names
  ///   jitter_us 500                     # optional, default 0
  ///   0 38000 75000                     # then R rows of R cells, in µs
  ///   38000 0 105000
  ///   75000 105000 0
  ///
  /// Throws std::invalid_argument on malformed input or an unreadable file.
  static LatencyMatrix from_file(const std::string& path, double scale = 1.0);

  /// Resolves a `--geo` spec: a preset name, else a path to a matrix file.
  static LatencyMatrix from_spec(const std::string& spec, double scale = 1.0);

  /// Restriction of this matrix to the given regions (by index).
  [[nodiscard]] LatencyMatrix restrict(const std::vector<int>& region_indices) const;

 private:
  std::vector<std::string> regions_;
  std::vector<std::vector<std::int64_t>> one_way_us_;
  std::int64_t jitter_us_ = 0;
  std::int64_t max_one_way_us_ = 0;
};

/// Replica -> region assignment: replica i lives in region i mod R.  This is
/// the default placement for `--geo` clusters (mirrors the F2 site layout).
[[nodiscard]] std::vector<int> round_robin_placement(int replicas, const LatencyMatrix& matrix);

/// Parses an explicit placement spec "0,2,4" (region index per replica) or
/// "us-east,eu-west,tokyo" (region names).  Throws std::invalid_argument on
/// unknown names or out-of-range indices.
[[nodiscard]] std::vector<int> parse_placement(std::string_view spec, const LatencyMatrix& matrix);

}  // namespace twostep::geo
