#include "obs/trace.hpp"

#include <stdexcept>

namespace twostep::obs {

const char* kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kMessageSend: return "message_send";
    case EventKind::kMessageDeliver: return "message_deliver";
    case EventKind::kMessageDrop: return "message_drop";
    case EventKind::kMessageDuplicate: return "message_duplicate";
    case EventKind::kRetransmit: return "retransmit";
    case EventKind::kCrash: return "crash";
    case EventKind::kRestart: return "restart";
    case EventKind::kTimerFire: return "timer_fire";
    case EventKind::kBallotStart: return "ballot_start";
    case EventKind::kPhaseTransition: return "phase_transition";
    case EventKind::kSelectionVerdict: return "selection_verdict";
    case EventKind::kProposal: return "proposal";
    case EventKind::kDecision: return "decision";
  }
  return "?";
}

RunTracer::RunTracer(std::size_t capacity) : ring_(capacity) {
  if (capacity == 0) throw std::invalid_argument("RunTracer: capacity must be > 0");
}

}  // namespace twostep::obs
