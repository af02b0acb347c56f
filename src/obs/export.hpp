// The simulated run's side of the one trace pipeline.
//
// A simulated run is read the same way as a live one: sim_spans turns a
// RunTracer's retained events into obs::MergedSpans, and the live
// exporter, write_chrome_spans (obs/flight.hpp), writes them as Chrome
// trace-event JSON for Perfetto (ui.perfetto.dev) or chrome://tracing.
// format_event is the single-line rendering used by `twostep_cli run
// --trace`.
#pragma once

#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace twostep::obs {

/// One span per event, in the events' order, timed in virtual ticks:
///   * each simulated process is its own process track ("p<id>");
///   * a ballot start is a slice on its leader's track that lasts until the
///     leader's next ballot or the last event;
///   * every other event is a zero-length slice;
///   * a delivery, drop or duplicate is parented on its message's send
///     (matched by the message seq both events carry), so each message hop
///     renders as a flow arrow.
/// Slice names are format_event's text without its time and process
/// prefix; span ids are 1, 2, ... in event order.
[[nodiscard]] std::vector<MergedSpan> sim_spans(const std::vector<TraceEvent>& events);

/// "[t=200] p2 decision fast v=102 (b=0)" — for terminal dumps.
[[nodiscard]] std::string format_event(const TraceEvent& event);

}  // namespace twostep::obs
