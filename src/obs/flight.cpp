#include "obs/flight.hpp"

#include <time.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <map>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace twostep::obs {

FlightRecorder::FlightRecorder(std::string process, std::uint64_t salt, std::size_t capacity)
    : process_(std::move(process)), salt_(salt & 0x7FFFFF), ring_(capacity == 0 ? 1 : capacity) {
  ring_.reserve();  // record() runs on the loop thread: never allocate there
}

std::int64_t FlightRecorder::now_us() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1000;
}

void FlightRecorder::record(const SpanRecord& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  ring_.push(span);
}

std::vector<SpanRecord> FlightRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ring_.items();
}

std::size_t FlightRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t FlightRecorder::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ring_.pushed() - ring_.size();
}

void FlightRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
}

void write_spans_jsonl(const FlightRecorder& recorder, std::ostream& os) {
  for (const SpanRecord& s : recorder.spans()) {
    os << "{\"process\": ";
    write_json_escaped(os, recorder.process());
    os << ", \"trace\": \"" << s.trace_id << "\", \"span\": \"" << s.span_id
       << "\", \"parent\": \"" << s.parent_span << "\", \"name\": ";
    write_json_escaped(os, s.name);
    os << ", \"start_us\": " << s.start_us << ", \"dur_us\": " << s.dur_us
       << ", \"detail\": " << s.detail << "}\n";
  }
}

namespace {

/// Minimal recursive-descent-free scanner for the flat JSONL span objects:
/// string values and integers only, exactly the shape write_spans_jsonl
/// produces.  Anything else is a malformed line.
class LineScanner {
 public:
  explicit LineScanner(std::string_view line) : s_(line) {}

  bool parse(MergedSpan& out) {
    skip_ws();
    if (!eat('{')) return false;
    bool first = true;
    for (;;) {
      skip_ws();
      if (eat('}')) break;
      if (!first && !eat(',')) return false;
      if (first && peek() == ',') return false;
      first = false;
      skip_ws();
      std::string key;
      if (!string_token(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      if (!value_for(key, out)) return false;
    }
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t')) ++pos_;
  }

  bool string_token(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            unsigned code = 0;
            if (std::from_chars(s_.data() + pos_, s_.data() + pos_ + 4, code, 16).ec !=
                std::errc{})
              return false;
            pos_ += 4;
            out.push_back(static_cast<char>(code & 0x7F));
            break;
          }
          default: return false;
        }
      } else {
        out.push_back(c);
      }
    }
    return false;  // unterminated string
  }

  bool int_token(std::int64_t& out) {
    const std::size_t begin = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    if (pos_ == begin) return false;
    return std::from_chars(s_.data() + begin, s_.data() + pos_, out).ec == std::errc{};
  }

  bool u64_string_token(std::uint64_t& out) {
    std::string digits;
    if (!string_token(digits)) return false;
    if (digits.empty()) return false;
    return std::from_chars(digits.data(), digits.data() + digits.size(), out).ec ==
           std::errc{};
  }

  bool value_for(const std::string& key, MergedSpan& out) {
    if (key == "process") return string_token(out.process);
    if (key == "name") return string_token(out.name);
    if (key == "trace") return u64_string_token(out.trace_id);
    if (key == "span") return u64_string_token(out.span_id);
    if (key == "parent") return u64_string_token(out.parent_span);
    if (key == "start_us") return int_token(out.start_us);
    if (key == "dur_us") return int_token(out.dur_us);
    if (key == "detail") return int_token(out.detail);
    return false;  // unknown key: not ours
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_spans_jsonl(std::istream& in, std::vector<MergedSpan>& out, std::string* error) {
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    MergedSpan span;
    if (!LineScanner{line}.parse(span)) {
      if (error) *error = "malformed span on line " + std::to_string(lineno);
      return false;
    }
    out.push_back(std::move(span));
  }
  return true;
}

void write_chrome_spans(const std::vector<MergedSpan>& spans, std::ostream& os) {
  // Stable pid per process label, in first-appearance order.
  std::vector<std::string> processes;
  std::unordered_map<std::string, int> pid_of;
  for (const MergedSpan& s : spans) {
    if (pid_of.emplace(s.process, static_cast<int>(processes.size()) + 1).second)
      processes.push_back(s.process);
  }
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const MergedSpan& s : spans) t0 = std::min(t0, s.start_us);
  if (spans.empty()) t0 = 0;
  std::unordered_map<std::uint64_t, const MergedSpan*> by_span;
  for (const MergedSpan& s : spans)
    if (s.span_id != 0) by_span.emplace(s.span_id, &s);

  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  for (const std::string& p : processes) {
    sep();
    os << "{\"ph\": \"M\", \"pid\": " << pid_of[p]
       << ", \"tid\": 1, \"name\": \"process_name\", \"args\": {\"name\": ";
    write_json_escaped(os, p);
    os << "}}";
  }
  for (const MergedSpan& s : spans) {
    sep();
    os << "{\"ph\": \"X\", \"pid\": " << pid_of[s.process] << ", \"tid\": 1, \"ts\": "
       << (s.start_us - t0) << ", \"dur\": " << s.dur_us << ", \"name\": ";
    write_json_escaped(os, s.name);
    os << ", \"args\": {\"trace\": \"" << s.trace_id << "\", \"span\": \"" << s.span_id
       << "\", \"parent\": \"" << s.parent_span << "\", \"detail\": " << s.detail << "}}";
  }
  // Flow arrows for causal edges that cross a process boundary.  The start
  // binds to the parent slice (clamped inside it), the finish to the head
  // of the child slice.
  for (const MergedSpan& s : spans) {
    if (s.parent_span == 0) continue;
    const auto it = by_span.find(s.parent_span);
    if (it == by_span.end() || it->second->process == s.process) continue;
    const MergedSpan& parent = *it->second;
    const std::int64_t at =
        std::clamp(s.start_us, parent.start_us, parent.start_us + parent.dur_us);
    sep();
    os << "{\"ph\": \"s\", \"pid\": " << pid_of[parent.process]
       << ", \"tid\": 1, \"ts\": " << (at - t0) << ", \"id\": \"" << s.span_id
       << "\", \"cat\": \"trace\", \"name\": \"causal\"}";
    sep();
    os << "{\"ph\": \"f\", \"bp\": \"e\", \"pid\": " << pid_of[s.process]
       << ", \"tid\": 1, \"ts\": " << (s.start_us - t0) << ", \"id\": \"" << s.span_id
       << "\", \"cat\": \"trace\", \"name\": \"causal\"}";
  }
  os << "\n]}\n";
}

}  // namespace twostep::obs
