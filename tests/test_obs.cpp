// Tests for the observability subsystem: RunTracer ring semantics, probe
// short-circuiting, MetricsRegistry counter/histogram behaviour, exporter
// well-formedness (validated with a small JSON parser below), and an
// end-to-end fast-path run of the paper's protocol with a probe attached.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "consensus/scenario.hpp"
#include "harness/run_spec.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace twostep::obs {
namespace {

using consensus::Value;

// ---- minimal JSON validator (no JSON library in the toolchain) ----
//
// Recursive-descent recognizer for RFC 8259 JSON; returns true iff the whole
// string is one valid JSON value.  Enough to assert the exporters emit
// parseable output without pulling in a dependency.

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_])))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* c = word; *c; ++c) {
      if (pos_ >= s_.size() || s_[pos_] != *c) return false;
      ++pos_;
    }
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool is_valid_json(const std::string& text) { return JsonValidator(text).valid(); }

TraceEvent event_at(sim::Tick t, EventKind kind = EventKind::kTimerFire) {
  TraceEvent e;
  e.kind = kind;
  e.at = t;
  e.process = 0;
  return e;
}

// ---- RunTracer ----

TEST(RunTracer, RetainsEventsInOrder) {
  RunTracer tracer(8);
  for (int i = 0; i < 5; ++i) tracer.record(event_at(i));
  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_EQ(tracer.recorded(), 5u);
  EXPECT_EQ(tracer.evicted(), 0u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(events[static_cast<std::size_t>(i)].at, i);
}

TEST(RunTracer, RingEvictsOldestBeyondCapacity) {
  RunTracer tracer(4);
  for (int i = 0; i < 10; ++i) tracer.record(event_at(i));
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.evicted(), 6u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  // The newest 4, still chronological.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[static_cast<std::size_t>(i)].at, 6 + i);
}

TEST(RunTracer, ClearEmptiesTheRing) {
  RunTracer tracer(4);
  tracer.record(event_at(1));
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_TRUE(tracer.events().empty());
}

class CollectingSink : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override { seen.push_back(event); }
  std::vector<TraceEvent> seen;
};

TEST(RunTracer, SinkSeesEveryEventIncludingEvicted) {
  RunTracer tracer(2);
  CollectingSink sink;
  tracer.set_sink(&sink);
  for (int i = 0; i < 7; ++i) tracer.record(event_at(i));
  ASSERT_EQ(sink.seen.size(), 7u);  // ring kept only 2, the sink got all 7
  for (int i = 0; i < 7; ++i) EXPECT_EQ(sink.seen[static_cast<std::size_t>(i)].at, i);
}

// ---- Probe ----

TEST(Probe, NullProbeNeverInvokesTheEventBuilder) {
  Probe probe;  // both pointers null
  EXPECT_FALSE(probe.enabled());
  int builds = 0;
  probe.trace([&] {
    ++builds;
    return TraceEvent{};
  });
  // The zero-overhead contract: with no tracer installed the build lambda —
  // and hence any formatting/allocation inside it — must not run.
  EXPECT_EQ(builds, 0);
}

TEST(Probe, MetricsOnlyProbeStillSkipsTraceBuilders) {
  MetricsRegistry registry;
  Probe probe{nullptr, &registry};
  EXPECT_TRUE(probe.enabled());
  EXPECT_FALSE(probe.tracing());
  int builds = 0;
  probe.trace([&] {
    ++builds;
    return TraceEvent{};
  });
  EXPECT_EQ(builds, 0);
}

TEST(Probe, TracingProbeRecordsBuiltEvents) {
  RunTracer tracer;
  Probe probe{&tracer, nullptr};
  probe.trace([] { return TraceEvent{.kind = EventKind::kCrash, .at = 5, .process = 2}; });
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.events()[0].kind, EventKind::kCrash);
  EXPECT_EQ(tracer.events()[0].process, 2);
}

// ---- message_label fallback ----

struct PlainPayload {
  int x = 0;
};

TEST(MessageLabel, FallsBackForUnnamedTypes) {
  EXPECT_STREQ(message_label(PlainPayload{}), "msg");
  EXPECT_STREQ(message_label(core::Message{core::ProposeMsg{Value{1}}}), "Propose");
  EXPECT_STREQ(message_label(core::Message{core::OneBMsg{}}), "1B");
}

// ---- MetricsRegistry ----

TEST(MetricsRegistry, CountersStartAtZeroAndAccumulate) {
  MetricsRegistry registry;
  Counter& c = registry.counter("x");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(registry.counter_value("x"), 42u);
  EXPECT_EQ(registry.counter_value("never-registered"), 0u);
}

TEST(MetricsRegistry, CounterReferencesStayStableAcrossRegistrations) {
  MetricsRegistry registry;
  Counter& a = registry.counter("a");
  a.add();
  for (int i = 0; i < 100; ++i) registry.counter("other-" + std::to_string(i));
  a.add();  // must still point at live storage
  EXPECT_EQ(registry.counter_value("a"), 2u);
  EXPECT_EQ(&a, &registry.counter("a"));
}

TEST(MetricsRegistry, CounterCellWritesAreVisible) {
  MetricsRegistry registry;
  std::atomic<std::uint64_t>* cell = registry.counter("raw").cell();
  cell->fetch_add(7, std::memory_order_relaxed);
  EXPECT_EQ(registry.counter_value("raw"), 7u);
}

TEST(MetricsRegistry, HistogramsRecordSamples) {
  MetricsRegistry registry;
  util::Summary& h = registry.histogram("lat");
  for (double x : {1.0, 2.0, 3.0, 4.0}) h.add(x);
  EXPECT_EQ(registry.histograms().at("lat").count(), 4u);
  EXPECT_DOUBLE_EQ(registry.histogram("lat").mean(), 2.5);
}

TEST(MetricsRegistry, ResetClearsEverything) {
  MetricsRegistry registry;
  registry.counter("c").add(3);
  registry.histogram("h").add(1.0);
  registry.reset();
  EXPECT_EQ(registry.counter_value("c"), 0u);
  EXPECT_EQ(registry.histogram("h").count(), 0u);
}

TEST(MetricsRegistry, JsonOutputIsWellFormed) {
  MetricsRegistry registry;
  registry.counter("net.sent.Propose").add(6);
  registry.counter("decisions.fast").add();
  registry.histogram("decision_latency").add(200.0);
  registry.histogram("decision_latency").add(300.0);
  const std::string json = registry.to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"net.sent.Propose\": 6"), std::string::npos) << json;
  EXPECT_NE(json.find("decision_latency"), std::string::npos);
}

TEST(MetricsRegistry, EmptyRegistryJsonIsWellFormed) {
  MetricsRegistry registry;
  EXPECT_TRUE(is_valid_json(registry.to_json())) << registry.to_json();
}

TEST(MetricsRegistry, MergeAddsCountersAndHistograms) {
  // Per-task registries merged after a parallel join must aggregate to what
  // one sequential registry would have recorded.
  MetricsRegistry a, b;
  a.counter("shared").add(2);
  a.histogram("lat").add(1.0);
  b.counter("shared").add(5);
  b.counter("only_b").add(1);
  b.histogram("lat").add(3.0);
  b.histogram("only_b_lat").add(7.0);
  a.merge(b);
  EXPECT_EQ(a.counter_value("shared"), 7u);
  EXPECT_EQ(a.counter_value("only_b"), 1u);
  EXPECT_EQ(a.histogram("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(a.histogram("lat").mean(), 2.0);
  EXPECT_EQ(a.histogram("only_b_lat").count(), 1u);
  a.merge(MetricsRegistry{});  // empty merge is a no-op
  EXPECT_EQ(a.counter_value("shared"), 7u);
}

// ---- LogHistogram ----

TEST(LogHistogram, EmptyHistogramSnapshotsToZeros) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p999, 0.0);
}

TEST(LogHistogram, SingleSampleIsExactAtEveryQuantile) {
  // The quantile walk lands on a bucket midpoint, but the clamp into
  // [min, max] makes a one-sample histogram exact everywhere.
  LogHistogram h;
  h.record(12345);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 12345);
  EXPECT_EQ(h.max(), 12345);
  EXPECT_DOUBLE_EQ(h.mean(), 12345.0);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_DOUBLE_EQ(h.percentile(q), 12345.0) << "q=" << q;
}

TEST(LogHistogram, SmallValuesGetExactBuckets) {
  // Values 0..31 have one bucket each, so quantiles below 32 are exact.
  LogHistogram h;
  for (std::int64_t v = 0; v < 32; ++v) h.record(v);
  for (std::int64_t v = 0; v < 32; ++v) EXPECT_EQ(LogHistogram::bucket_index(v), v);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 31.0);
  // Closest-rank p50 of 0..31 is the 16th sample, value 15.
  EXPECT_NEAR(h.percentile(0.5), 15.0, 1.0);
}

TEST(LogHistogram, BucketMathRoundTripsAcrossTheTrackedRange) {
  // For every probed value: the bucket index is monotone in v, and the
  // bucket's reported midpoint is within one sub-bucket (1/32 relative
  // error) of the sample.
  int prev = -1;
  for (std::int64_t v = 0; v < LogHistogram::kOverflowValue; v = v * 2 + 1) {
    const int idx = LogHistogram::bucket_index(v);
    EXPECT_GE(idx, prev) << "v=" << v;
    prev = idx;
    EXPECT_LT(idx, LogHistogram::kBucketCount - 1) << "v=" << v;
    const double mid = static_cast<double>(LogHistogram::bucket_value(idx));
    const double tolerance = std::max(1.0, static_cast<double>(v) / 32.0);
    EXPECT_NEAR(mid, static_cast<double>(v), tolerance) << "v=" << v << " idx=" << idx;
  }
}

TEST(LogHistogram, QuantileErrorIsBoundedByBucketResolution) {
  LogHistogram h;
  constexpr std::int64_t kN = 100'000;
  for (std::int64_t v = 1; v <= kN; ++v) h.record(v);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kN));
  EXPECT_NEAR(h.mean(), static_cast<double>(kN + 1) / 2.0, 0.5);
  // Uniform 1..N: the q-quantile is q*N, and the log-linear buckets bound
  // the relative error by 1/32 (~3.2%).
  for (const double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_NEAR(h.percentile(q), q * static_cast<double>(kN),
                q * static_cast<double>(kN) / 32.0 + 1.0)
        << "q=" << q;
}

TEST(LogHistogram, NegativeSamplesClampToZero) {
  LogHistogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(LogHistogram, OverflowSamplesSaturateWithoutLosingTheCount) {
  LogHistogram h;
  const std::int64_t huge = LogHistogram::kOverflowValue * 4;
  h.record(10);
  h.record(huge);
  EXPECT_EQ(h.count(), 2u);              // the sample is counted...
  EXPECT_EQ(h.max(), huge);              // ...and min/max stay exact.
  EXPECT_EQ(LogHistogram::bucket_index(huge), LogHistogram::kBucketCount - 1);
  // The top quantile reports at least the tracked maximum (the clamp may
  // raise it to the observed max, never below the overflow marker).
  EXPECT_GE(h.percentile(1.0), static_cast<double>(LogHistogram::kOverflowValue));
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
}

TEST(LogHistogram, MergeMatchesSequentialRecording) {
  LogHistogram evens, odds, all;
  for (std::int64_t v = 0; v < 2'000; ++v) {
    ((v % 2 == 0) ? evens : odds).record(v * 7);
    all.record(v * 7);
  }
  evens.merge(odds);
  EXPECT_EQ(evens.count(), all.count());
  EXPECT_DOUBLE_EQ(evens.mean(), all.mean());
  EXPECT_EQ(evens.min(), all.min());
  EXPECT_EQ(evens.max(), all.max());
  for (const double q : {0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(evens.percentile(q), all.percentile(q)) << "q=" << q;
}

TEST(LogHistogram, ResetForgetsEverySample) {
  LogHistogram h;
  h.record(100);
  h.record(LogHistogram::kOverflowValue * 2);
  h.reset();
  EXPECT_TRUE(h.empty());
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  h.record(7);  // still usable after reset
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 7.0);
}

TEST(LogHistogram, SnapshotAgreesWithAccessors) {
  LogHistogram h;
  for (const std::int64_t v : {3, 1000, 250, 42}) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, h.count());
  EXPECT_DOUBLE_EQ(s.mean, h.mean());
  EXPECT_DOUBLE_EQ(s.min, static_cast<double>(h.min()));
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>(h.max()));
  EXPECT_DOUBLE_EQ(s.p50, h.percentile(0.5));
  EXPECT_DOUBLE_EQ(s.p999, h.percentile(0.999));
}

TEST(MetricsRegistry, LogHistogramsShareTheHistogramJsonNamespace) {
  MetricsRegistry registry;
  registry.log_histogram("live.lat_us").record(500);
  registry.histogram("sim.lat").add(2.0);
  const std::string json = registry.to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"live.lat_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"sim.lat\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999\""), std::string::npos) << json;
}

TEST(MetricsRegistry, MergeAddsLogHistograms) {
  MetricsRegistry a, b;
  a.log_histogram("lat").record(10);
  b.log_histogram("lat").record(30);
  b.log_histogram("only_b").record(5);
  a.merge(b);
  EXPECT_EQ(a.log_histogram_snapshot("lat").count, 2u);
  EXPECT_DOUBLE_EQ(a.log_histogram_snapshot("lat").mean, 20.0);
  EXPECT_EQ(a.log_histogram_snapshot("only_b").count, 1u);
  EXPECT_EQ(a.log_histogram_snapshot("never").count, 0u);
}

TEST(LogHistogramLive, ConcurrentRecordersAndSnapshotsAreRaceFree) {
  // The live-runtime contract: event-loop threads record while a scraper
  // snapshots from another thread.  Runs under TSan in CI (the 'Live'
  // filter) — the assertion here is the absence of data races plus exact
  // final totals once the writers join.
  MetricsRegistry registry;
  LogHistogram& h = registry.log_histogram("live.rtt_us");
  constexpr int kWriters = 4;
  constexpr std::int64_t kPerWriter = 20'000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const HistogramSnapshot s = h.snapshot();
      EXPECT_LE(s.count, static_cast<std::uint64_t>(kWriters * kPerWriter));
      (void)registry.to_json();  // registration map + JSON under writers
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&h, w] {
      for (std::int64_t i = 0; i < kPerWriter; ++i) h.record(i + w);
    });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kWriters * kPerWriter));
}

// ---- exporters ----

RunTracer make_sample_trace() {
  RunTracer tracer;
  tracer.record({EventKind::kProposal, 0, 0, consensus::kNoProcess, -1, Value{100}, "", 0});
  tracer.record({EventKind::kMessageSend, 0, 0, 1, -1, {}, "Propose", 1});
  tracer.record({EventKind::kMessageDeliver, 100, 1, 0, -1, {}, "Propose", 1});
  tracer.record({EventKind::kBallotStart, 200, 1, consensus::kNoProcess, 4, {}, "", 0});
  tracer.record({EventKind::kSelectionVerdict, 300, 1, consensus::kNoProcess, 4, Value{100},
                 "own_initial", 0});
  tracer.record({EventKind::kBallotStart, 500, 1, consensus::kNoProcess, 7, {}, "", 0});
  tracer.record({EventKind::kDecision, 600, 1, consensus::kNoProcess, 7, Value{100}, "slow", 0});
  return tracer;
}

TEST(Export, SimSpansKeepEveryEventAndLinkEachHop) {
  const std::vector<MergedSpan> spans = sim_spans(make_sample_trace().events());
  ASSERT_EQ(spans.size(), 7u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].span_id, i + 1);
    EXPECT_EQ(spans[i].trace_id, 1u);
  }
  // One track per process; slice names carry format_event's text.
  EXPECT_EQ(spans[0].process, "p0");
  EXPECT_EQ(spans[0].name, "proposal v=100");
  EXPECT_EQ(spans[1].name, "message_send Propose to p1");
  EXPECT_EQ(spans[2].process, "p1");
  EXPECT_EQ(spans[2].name, "message_deliver Propose from p0");
  EXPECT_EQ(spans[4].name, "selection_verdict own_initial v=100 (b=4)");
  EXPECT_EQ(spans[6].name, "decision slow v=100 (b=7)");
  // The delivery is parented on its send (same message seq); nothing else
  // has a parent.
  EXPECT_EQ(spans[2].parent_span, spans[1].span_id);
  for (const std::size_t i : {0, 1, 3, 4, 5, 6}) EXPECT_EQ(spans[i].parent_span, 0u) << i;
  // Ballot 4 lasts until the leader's next ballot, ballot 7 to the end.
  EXPECT_EQ(spans[3].start_us, 200);
  EXPECT_EQ(spans[3].dur_us, 300);
  EXPECT_EQ(spans[5].dur_us, 100);
  EXPECT_EQ(spans[6].dur_us, 0);
}

TEST(Export, ChromeTraceIsOneValidJsonObject) {
  std::ostringstream os;
  write_chrome_spans(sim_spans(make_sample_trace().events()), os);
  const std::string json = os.str();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Process metadata names the tracks, every event is a complete slice,
  // and the Propose hop from p0 to p1 is a flow arrow.
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"p1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
}

TEST(Export, FormatEventIsHumanReadable) {
  TraceEvent e{EventKind::kDecision, 200, 2, consensus::kNoProcess, 0, Value{102}, "fast", 0};
  const std::string line = format_event(e);
  EXPECT_NE(line.find("t=200"), std::string::npos) << line;
  EXPECT_NE(line.find("p2"), std::string::npos);
  EXPECT_NE(line.find("decision"), std::string::npos);
  EXPECT_NE(line.find("fast"), std::string::npos);
  EXPECT_NE(line.find("102"), std::string::npos);
}

// ---- end-to-end: probe through a simulated run ----

TEST(ObsEndToEnd, FastPathRunEmitsExpectedEventsAndMetrics) {
  RunTracer tracer;
  MetricsRegistry metrics;
  const Probe probe{&tracer, &metrics};

  // Task mode at the bound n = 3 (e = 1, f = 1), failure-free, proposals
  // 100+p with p2's maximal value delivered first: p2 decides on the fast
  // path at 2Δ, everyone else learns.
  const consensus::SystemConfig cfg{3, 1, 1};
  auto runner = harness::RunSpec(cfg).delta(100).probe(probe).core(core::Mode::kTask);
  consensus::SyncScenario s;
  for (int p = 2; p >= 0; --p) s.proposals.push_back({p, Value{100 + p}});
  runner->run(s);
  ASSERT_TRUE(runner->monitor().safe());

  // Metrics: one fast decision (p2), two learned (p0, p1), no slow ones.
  EXPECT_EQ(metrics.counter_value("decisions.fast"), 1u);
  EXPECT_EQ(metrics.counter_value("decisions.learned"), 2u);
  EXPECT_EQ(metrics.counter_value("decisions.slow"), 0u);
  EXPECT_EQ(metrics.counter_value("proposals"), 3u);
  // Every proposer broadcasts Propose to the other two.
  EXPECT_EQ(metrics.counter_value("net.sent.Propose"), 6u);
  EXPECT_EQ(metrics.counter_value("net.sent.Decide"), 2u);
  EXPECT_GT(metrics.counter_value("sim.events"), 0u);
  EXPECT_EQ(metrics.log_histograms().at("decision_latency").count(), 3u);

  // Event stream: the first decision is p2's fast one, and a fast_vote
  // transition precedes it (someone voted for p2's proposal).
  const auto events = tracer.events();
  ASSERT_FALSE(events.empty());
  const TraceEvent* first_decision = nullptr;
  bool saw_fast_vote_before_decision = false;
  for (const auto& e : events) {
    if (!first_decision && e.kind == EventKind::kPhaseTransition &&
        std::string(e.label) == "fast_vote")
      saw_fast_vote_before_decision = true;
    if (e.kind == EventKind::kDecision && !first_decision) first_decision = &e;
  }
  ASSERT_NE(first_decision, nullptr);
  EXPECT_STREQ(first_decision->label, "fast");
  EXPECT_EQ(first_decision->process, 2);
  EXPECT_EQ(first_decision->value, Value{102});
  EXPECT_EQ(first_decision->at, 200);  // 2Δ
  EXPECT_TRUE(saw_fast_vote_before_decision);

  // Proposals are traced for every process.
  int proposals = 0;
  for (const auto& e : events)
    if (e.kind == EventKind::kProposal) ++proposals;
  EXPECT_EQ(proposals, 3);

  // Chronological ordering of the retained stream.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].at, events[i].at);

  // The whole run exports to valid JSON, and every delivery is parented on
  // a recorded send.
  const std::vector<MergedSpan> spans = sim_spans(events);
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events[i].kind == EventKind::kMessageDeliver) {
      ASSERT_NE(spans[i].parent_span, 0u);
      const TraceEvent& send = events[spans[i].parent_span - 1];
      EXPECT_EQ(send.kind, EventKind::kMessageSend);
      EXPECT_EQ(send.process, events[i].peer);
      EXPECT_EQ(send.detail, events[i].detail);
    }
  std::ostringstream chrome;
  write_chrome_spans(spans, chrome);
  EXPECT_TRUE(is_valid_json(chrome.str()));
}

TEST(ObsEndToEnd, SlowPathRunCountsBallotsAndSelectionBranches) {
  RunTracer tracer;
  MetricsRegistry metrics;
  const Probe probe{&tracer, &metrics};

  // Crash the would-be fast proposer's voters: with p0 crashed and only p0
  // proposing... instead: crash p2 and give only p0 a proposal in object
  // mode at n = 4 (e = 1, f = 1) — wait, keep it simple: task mode with the
  // only proposal held by a crashed process forces ballot recovery.
  const consensus::SystemConfig cfg{3, 1, 1};
  auto runner = harness::RunSpec(cfg).delta(100).probe(probe).core(core::Mode::kTask);
  consensus::SyncScenario s;
  s.crashes = {2};
  s.proposals = {{0, Value{100}}, {1, Value{101}}};
  runner->run(s);
  ASSERT_TRUE(runner->monitor().safe());

  EXPECT_GT(metrics.counter_value("ballots.started"), 0u);
  EXPECT_GT(metrics.counter_value("crashes"), 0u);
  EXPECT_GT(metrics.counter_value("timers.fired"), 0u);
  // Some selection branch fired for every 2A the recovery leader sent.
  std::uint64_t selections = 0;
  for (const auto& [name, counter] : metrics.counters())
    if (name.rfind("selection.", 0) == 0) selections += counter.value();
  EXPECT_GT(selections, 0u);

  bool saw_ballot_start = false;
  bool saw_selection = false;
  for (const auto& e : tracer.events()) {
    saw_ballot_start |= e.kind == EventKind::kBallotStart;
    saw_selection |= e.kind == EventKind::kSelectionVerdict;
  }
  EXPECT_TRUE(saw_ballot_start);
  EXPECT_TRUE(saw_selection);
}

TEST(ObsEndToEnd, DisabledProbeProducesNoMetricsOrEvents) {
  // A run with a default probe must leave a registry untouched (it is not
  // attached) and record nothing — the configuration every tier-1 test and
  // benchmark runs in.
  const consensus::SystemConfig cfg{3, 1, 1};
  auto runner = harness::RunSpec(cfg).delta(100).core(core::Mode::kTask);
  consensus::SyncScenario s;
  for (int p = 0; p < 3; ++p) s.proposals.push_back({p, Value{100 + p}});
  runner->run(s);
  EXPECT_TRUE(runner->monitor().safe());
}

}  // namespace
}  // namespace twostep::obs
