#include "obs/export.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace twostep::obs {

namespace {

/// "decision fast v=102 (b=0)": the event without its time and process.
std::string describe(const TraceEvent& e) {
  std::ostringstream os;
  os << kind_name(e.kind);
  if (e.label[0] != '\0') os << " " << e.label;
  if (e.peer != consensus::kNoProcess) {
    os << (e.kind == EventKind::kMessageDeliver ? " from p" : " to p") << e.peer;
  }
  if (!e.value.is_bottom()) os << " v=" << e.value.to_string();
  if (e.ballot >= 0) os << " (b=" << e.ballot << ")";
  return os.str();
}

}  // namespace

std::vector<MergedSpan> sim_spans(const std::vector<TraceEvent>& events) {
  sim::Tick end = 0;
  for (const TraceEvent& e : events) end = std::max(end, e.at);
  std::vector<MergedSpan> spans;
  spans.reserve(events.size());
  std::unordered_map<std::int64_t, std::uint64_t> send_of;              // message seq -> span id
  std::unordered_map<consensus::ProcessId, std::size_t> open_ballot;  // leader -> spans index
  for (const TraceEvent& e : events) {
    MergedSpan s;
    s.process = "p" + std::to_string(e.process);
    s.trace_id = 1;
    s.span_id = spans.size() + 1;
    s.name = describe(e);
    s.start_us = e.at;
    s.detail = e.detail;
    switch (e.kind) {
      case EventKind::kMessageSend: send_of[e.detail] = s.span_id; break;
      case EventKind::kMessageDeliver:
      case EventKind::kMessageDrop:
      case EventKind::kMessageDuplicate:
        if (const auto it = send_of.find(e.detail); it != send_of.end()) s.parent_span = it->second;
        break;
      case EventKind::kBallotStart:
        s.dur_us = end - e.at;
        if (const auto it = open_ballot.find(e.process); it != open_ballot.end()) {
          MergedSpan& previous = spans[it->second];
          previous.dur_us = e.at - previous.start_us;
        }
        open_ballot[e.process] = spans.size();
        break;
      default: break;
    }
    spans.push_back(std::move(s));
  }
  return spans;
}

std::string format_event(const TraceEvent& e) {
  std::ostringstream os;
  os << "[t=" << e.at << "] ";
  if (e.process != consensus::kNoProcess) os << "p" << e.process << " ";
  os << describe(e);
  return os.str();
}

}  // namespace twostep::obs
