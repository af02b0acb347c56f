// Flight recorder: cross-process span tracing for the live cluster.
//
// The RunTracer records a *simulated* run against virtual time; the flight
// recorder records a *live* one against the machine's monotonic clock.  A
// client stamps each request with a TraceContext (trace id, its root span,
// origin timestamp); the runtime propagates that context inside wire
// frames, so every hop — leader serve, WAL fsync, acceptor deliver — lands
// as a span parented on the span of whichever process caused it.  One
// client command therefore yields a causally-linked span tree across the
// client, leader and acceptor processes.
//
// Each process dumps its recorder as JSONL (one span per line); the
// `twostep tracemerge` tool parses the per-process files and merges them
// into a single Chrome-trace JSON (chrome://tracing / Perfetto), with flow
// arrows across process boundaries.  Merging works because every span's
// timestamp comes from the same clock: raw CLOCK_MONOTONIC microseconds,
// which is system-wide on one machine (multi-machine clusters would need
// clock alignment; out of scope here, as for the bench topology).
//
// Same design constraints as the RunTracer: recording is a struct copy
// into the same bounded obs::Ring (oldest evicted), span names are static
// strings, and a null recorder pointer means tracing is off and every site
// reduces to one pointer test.
#pragma once

#include <atomic>
#include <cstdint>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/ring.hpp"

namespace twostep::obs {

/// The context one process hands the next: which trace this work belongs
/// to, which span caused it (the receiver's parent), and when the root
/// request started (raw monotonic µs — lets any hop compute its offset
/// from the client's send without a round trip).
struct TraceContext {
  std::uint64_t trace_id = 0;  ///< 0 = no trace attached
  std::uint64_t parent_span = 0;
  std::int64_t origin_us = 0;

  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// One completed span.  Fixed-size and trivially copyable; `name` must be
/// a static string (message labels, "serve", "wal.fsync", "client.call").
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;  ///< 0 = root
  const char* name = "";
  std::int64_t start_us = 0;  ///< raw CLOCK_MONOTONIC µs
  std::int64_t dur_us = 0;
  std::int64_t detail = 0;  ///< site-specific: request id, sender, bytes
};

/// Bounded per-process span sink.  record() takes a mutex — tracing is an
/// opt-in diagnosis mode, not the null-probe hot path — which makes the
/// recorder safe to share between a runtime's loop thread and whatever
/// thread exports it.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// `process` labels every exported span ("client", "node-0"); `salt`
  /// namespaces span ids so ids minted by different processes never
  /// collide (use the replica id + 1, or a client-unique value).
  explicit FlightRecorder(std::string process, std::uint64_t salt,
                          std::size_t capacity = kDefaultCapacity);

  /// Mints a process-unique span id (atomic; any thread).
  [[nodiscard]] std::uint64_t next_span_id() noexcept {
    return (salt_ << 40) | next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Raw CLOCK_MONOTONIC in µs — the shared span clock.
  [[nodiscard]] static std::int64_t now_us() noexcept;

  void record(const SpanRecord& span);

  [[nodiscard]] const std::string& process() const noexcept { return process_; }
  /// Retained spans in recording order.  Copies under the mutex.
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  [[nodiscard]] std::size_t size() const;
  /// Spans evicted from the ring since construction/clear.
  [[nodiscard]] std::uint64_t dropped() const;

  void clear();

 private:
  std::string process_;
  std::uint64_t salt_;
  std::atomic<std::uint64_t> next_id_{1};

  mutable std::mutex mu_;
  Ring<SpanRecord> ring_;
};

/// One span as parsed back from JSONL: the process label travels with it
/// and the name is owned (the static-string constraint only exists on the
/// recording side).
struct MergedSpan {
  std::string process;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  std::int64_t detail = 0;
  friend bool operator==(const MergedSpan&, const MergedSpan&) = default;
};

/// Writes the recorder's retained spans as JSONL, one flat object per
/// line.  Ids are emitted as decimal *strings* (they carry high salt bits
/// and must survive readers that parse numbers as doubles).
void write_spans_jsonl(const FlightRecorder& recorder, std::ostream& os);

/// Parses JSONL produced by write_spans_jsonl (possibly concatenated from
/// several processes).  Appends to `out`; returns false and sets `error`
/// (if non-null) on the first malformed line.  Blank lines are skipped.
bool parse_spans_jsonl(std::istream& in, std::vector<MergedSpan>& out,
                       std::string* error = nullptr);

/// Merges spans from any number of processes into one Chrome-trace JSON:
/// one pid per process label, "X" complete events carrying
/// trace/span/parent ids in args, and "s"/"f" flow arrows for every
/// parent→child edge that crosses a process boundary.  Timestamps are
/// shifted so the earliest span starts at 0.
void write_chrome_spans(const std::vector<MergedSpan>& spans, std::ostream& os);

}  // namespace twostep::obs
