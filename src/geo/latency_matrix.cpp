#include "geo/latency_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace twostep::geo {
namespace {

// The nine-region table: names, then one-way latencies (ms) in that order.
// Values are RTT/2 rounded from published inter-region measurements; exact
// numbers only shape magnitudes.  Same-region delay is 0: live loopback
// already has real latency, and the simulator floors every link at one tick.
const std::vector<std::string>& nine_region_names() {
  static const std::vector<std::string> names = {
      "us-east", "us-west", "eu-west", "eu-central", "ap-northeast",
      "ap-southeast", "ap-south", "sa-east", "au-southeast"};
  return names;
}
constexpr std::int64_t kNineRegionsMs[9][9] = {
    //  use  usw  euw  euc  jpn  sgp  ind  bra  aus
    {0, 35, 38, 45, 75, 105, 91, 57, 100},    // us-east (Virginia)
    {35, 0, 65, 72, 50, 82, 110, 87, 70},     // us-west (Oregon)
    {38, 65, 0, 12, 105, 87, 60, 92, 130},    // eu-west (Ireland)
    {45, 72, 12, 0, 112, 80, 55, 100, 137},   // eu-central (Frankfurt)
    {75, 50, 105, 112, 0, 35, 60, 128, 52},   // ap-northeast (Tokyo)
    {105, 82, 87, 80, 35, 0, 27, 160, 46},    // ap-southeast (Singapore)
    {91, 110, 60, 55, 60, 27, 0, 150, 72},    // ap-south (Mumbai)
    {57, 87, 92, 100, 128, 160, 150, 0, 157}, // sa-east (Sao Paulo)
    {100, 70, 130, 137, 52, 46, 72, 157, 0},  // au-southeast (Sydney)
};
constexpr std::int64_t kNineRegionsJitterMs = 2;

std::int64_t scale_us(std::int64_t us, double scale) {
  const double scaled = static_cast<double>(us) * scale;
  return static_cast<std::int64_t>(std::llround(scaled));
}

}  // namespace

LatencyMatrix::LatencyMatrix(std::vector<std::string> regions,
                             std::vector<std::vector<std::int64_t>> one_way_us,
                             std::int64_t jitter_us)
    : regions_(std::move(regions)), one_way_us_(std::move(one_way_us)), jitter_us_(jitter_us) {
  if (regions_.empty()) throw std::invalid_argument("LatencyMatrix: no regions");
  if (jitter_us_ < 0) throw std::invalid_argument("LatencyMatrix: negative jitter");
  if (one_way_us_.size() != regions_.size())
    throw std::invalid_argument("LatencyMatrix: matrix/regions size mismatch");
  for (const auto& row : one_way_us_) {
    if (row.size() != regions_.size())
      throw std::invalid_argument("LatencyMatrix: matrix must be square");
    for (const std::int64_t cell : row) {
      if (cell < 0) throw std::invalid_argument("LatencyMatrix: negative latency");
      max_one_way_us_ = std::max(max_one_way_us_, cell);
    }
  }
  for (std::size_t i = 0; i < regions_.size(); ++i)
    for (std::size_t j = i + 1; j < regions_.size(); ++j)
      if (regions_[i] == regions_[j])
        throw std::invalid_argument("LatencyMatrix: duplicate region '" + regions_[i] + "'");
}

std::int64_t LatencyMatrix::one_way_us(int from, int to) const {
  const int n = static_cast<int>(regions_.size());
  if (from < 0 || from >= n || to < 0 || to >= n)
    throw std::out_of_range("LatencyMatrix: region index out of range");
  return one_way_us_[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)];
}

int LatencyMatrix::region_index(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < regions_.size(); ++i)
    if (regions_[i] == name) return static_cast<int>(i);
  return -1;
}

LatencyMatrix LatencyMatrix::nine_regions(double scale) {
  if (!(scale > 0)) throw std::invalid_argument("LatencyMatrix: scale must be > 0");
  std::vector<std::vector<std::int64_t>> us(9, std::vector<std::int64_t>(9));
  for (std::size_t i = 0; i < 9; ++i)
    for (std::size_t j = 0; j < 9; ++j) us[i][j] = scale_us(kNineRegionsMs[i][j] * 1000, scale);
  return LatencyMatrix(nine_region_names(), std::move(us),
                       scale_us(kNineRegionsJitterMs * 1000, scale));
}

LatencyMatrix LatencyMatrix::preset(std::string_view name, double scale) {
  if (name == "nine-regions") return nine_regions(scale);
  if (name == "us-eu") return nine_regions(scale).restrict({0, 1, 2, 3});
  if (name == "global") return nine_regions(scale).restrict({0, 2, 4, 7, 8});
  throw std::invalid_argument("LatencyMatrix: unknown preset '" + std::string(name) + "'");
}

bool LatencyMatrix::is_preset(std::string_view name) noexcept {
  return name == "nine-regions" || name == "us-eu" || name == "global";
}

LatencyMatrix LatencyMatrix::from_file(const std::string& path, double scale) {
  if (!(scale > 0)) throw std::invalid_argument("LatencyMatrix: scale must be > 0");
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("LatencyMatrix: cannot open '" + path + "'");

  std::vector<std::string> regions;
  std::vector<std::vector<std::int64_t>> rows;
  std::int64_t jitter_us = 0;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first)) continue;  // blank / comment-only line
    const auto bad = [&](const std::string& why) {
      throw std::invalid_argument("LatencyMatrix: " + path + ":" + std::to_string(lineno) +
                                  ": " + why);
    };
    if (first == "regions") {
      if (!regions.empty()) bad("duplicate 'regions' line");
      std::string name;
      while (tokens >> name) regions.push_back(name);
      if (regions.empty()) bad("'regions' names no regions");
    } else if (first == "jitter_us") {
      if (!(tokens >> jitter_us) || jitter_us < 0) bad("'jitter_us' needs a value >= 0");
      if (std::string rest; tokens >> rest) bad("trailing '" + rest + "' after 'jitter_us' value");
    } else {
      if (regions.empty()) bad("matrix row before 'regions' line");
      std::vector<std::int64_t> row;
      std::istringstream cells(line);
      std::int64_t cell = 0;
      while (cells >> cell) {
        if (cell < 0) bad("negative latency cell");
        row.push_back(scale_us(cell, scale));
      }
      if (!cells.eof()) bad("non-numeric matrix cell");
      if (row.size() != regions.size()) bad("row width does not match region count");
      rows.push_back(std::move(row));
    }
  }
  if (regions.empty()) throw std::invalid_argument("LatencyMatrix: " + path + ": no 'regions' line");
  if (rows.size() != regions.size())
    throw std::invalid_argument("LatencyMatrix: " + path + ": expected " +
                                std::to_string(regions.size()) + " matrix rows, got " +
                                std::to_string(rows.size()));
  return LatencyMatrix(std::move(regions), std::move(rows), scale_us(jitter_us, scale));
}

LatencyMatrix LatencyMatrix::from_spec(const std::string& spec, double scale) {
  if (is_preset(spec)) return preset(spec, scale);
  return from_file(spec, scale);
}

LatencyMatrix LatencyMatrix::restrict(const std::vector<int>& region_indices) const {
  const int n = static_cast<int>(regions_.size());
  std::vector<std::string> names;
  std::vector<std::vector<std::int64_t>> sub(region_indices.size(),
                                             std::vector<std::int64_t>(region_indices.size()));
  for (std::size_t i = 0; i < region_indices.size(); ++i) {
    if (region_indices[i] < 0 || region_indices[i] >= n)
      throw std::out_of_range("LatencyMatrix::restrict: region index out of range");
    names.push_back(regions_[static_cast<std::size_t>(region_indices[i])]);
    for (std::size_t j = 0; j < region_indices.size(); ++j)
      sub[i][j] = one_way_us(region_indices[i], region_indices[j]);
  }
  return LatencyMatrix(std::move(names), std::move(sub), jitter_us_);
}

std::vector<int> round_robin_placement(int replicas, const LatencyMatrix& matrix) {
  if (replicas <= 0) throw std::invalid_argument("round_robin_placement: replicas must be > 0");
  std::vector<int> placement(static_cast<std::size_t>(replicas));
  for (int i = 0; i < replicas; ++i)
    placement[static_cast<std::size_t>(i)] = i % static_cast<int>(matrix.size());
  return placement;
}

std::vector<int> parse_placement(std::string_view spec, const LatencyMatrix& matrix) {
  std::vector<int> placement;
  std::string token;
  std::istringstream parts{std::string(spec)};
  while (std::getline(parts, token, ',')) {
    if (token.empty()) throw std::invalid_argument("parse_placement: empty placement entry");
    int region = matrix.region_index(token);
    if (region < 0) {
      try {
        std::size_t used = 0;
        region = std::stoi(token, &used);
        if (used != token.size()) region = -1;
      } catch (const std::exception&) {
        region = -1;
      }
      if (region < 0 || region >= static_cast<int>(matrix.size()))
        throw std::invalid_argument("parse_placement: unknown region '" + token + "'");
    }
    placement.push_back(region);
  }
  if (placement.empty()) throw std::invalid_argument("parse_placement: empty placement spec");
  return placement;
}

}  // namespace twostep::geo
