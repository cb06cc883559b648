// Recovery-phase timeline: the end-to-end anatomy of each failure.
//
// The trace layer already records every protocol transition; this module
// folds a recorded run into one FailureTimeline per crash, splitting the
// crash-to-recovered interval at the paper's phase boundaries:
//
//   t_crash        kCrash — volatile state lost
//   t_detect       first kTokenBroadcast attributed to this failure
//                  (failure detection + checkpoint restore latency)
//   t_disseminate  last kTokenProcess for this failure — every surviving
//                  process has synchronously logged the token (Section 5)
//   t_rollback     last kRollback attributed to this failure — all orphaned
//                  states are undone (Lemma 3 closure)
//   t_restart      kRestart — stable-log replay finished, process is up
//   t_resume       first post-restart kDeliver by the failed process — the
//                  cluster is doing fresh useful work again
//
// Concurrent recovery interleaves these events arbitrarily across
// processes, so each boundary is clamped to be monotonically non-decreasing
// (and never past t_resume). That clamp buys an exact accounting identity:
//
//   detection + dissemination + rollback + replay + resume_us
//     == unavailability_us  (== t_resume - t_crash)
//
// which BENCH_recovery_timeline.json consumers (and the acceptance test)
// rely on. Boundaries that never happened inherit the previous boundary and
// contribute a zero-length phase; `complete` is false if the run ended
// before the failed process delivered again.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/clocks/ftvc.h"
#include "src/trace/trace_event.h"
#include "src/util/ids.h"

namespace optrec {
class JsonWriter;
}

namespace optrec::telemetry {

/// One failure's phase breakdown. All instants share the trace's time base
/// (wall-clock micros when every event carries one, run micros otherwise).
struct FailureTimeline {
  ProcessId pid = kNoProcess;
  Version failed_version = 0;     // incarnation wiped by the crash
  std::uint32_t node = kNoTraceNode;

  std::uint64_t t_crash = 0;
  std::uint64_t t_detect = 0;
  std::uint64_t t_disseminate = 0;
  std::uint64_t t_rollback = 0;
  std::uint64_t t_restart = 0;
  std::uint64_t t_resume = 0;

  bool restarted = false;   // kRestart observed
  bool complete = false;    // post-restart delivery observed

  // Work attributed to this failure.
  std::uint64_t tokens_processed = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t states_rolled_back = 0;
  std::uint64_t messages_replayed = 0;
  std::uint64_t deliveries_lost = 0;  // volatile deliveries wiped by the crash

  std::uint64_t detection_us() const { return t_detect - t_crash; }
  std::uint64_t dissemination_us() const { return t_disseminate - t_detect; }
  std::uint64_t rollback_us() const { return t_rollback - t_disseminate; }
  std::uint64_t replay_us() const { return t_restart - t_rollback; }
  std::uint64_t resume_us() const { return t_resume - t_restart; }
  std::uint64_t unavailability_us() const { return t_resume - t_crash; }
};

struct RecoveryTimelineReport {
  std::vector<FailureTimeline> failures;   // crash order
  /// "wall_us" when timelines are on the shared wall clock, "run_us" when on
  /// the recording run's own clock.
  std::string time_base = "run_us";
  /// Length of the union of all [t_crash, t_resume) windows: total time the
  /// cluster spent with at least one failure being recovered.
  std::uint64_t cluster_unavailability_us = 0;
};

/// Fold a recorded (or merged) trace into per-failure timelines.
RecoveryTimelineReport analyze_recovery_timeline(
    const std::vector<TraceEvent>& events);

/// BENCH_recovery_timeline.json: schema optrec-recovery-timeline-v1.
void write_recovery_timeline_json(std::ostream& os,
                                  const RecoveryTimelineReport& report);

/// Write the report's fields into an object the caller has already begun —
/// the shared shape embedded under "recovery_timeline" in --metrics-json
/// output (optrec_sim/optrec_node) and in the BENCH file.
void write_recovery_timeline_fields(JsonWriter& w,
                                    const RecoveryTimelineReport& report);

}  // namespace optrec::telemetry
