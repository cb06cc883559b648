// Tunable Remark-2 history GC: the one collector DG runs.
//
// The paper's rule (kStandard) reclaims everything strictly older than the
// newest stability-covered checkpoint — one fixed policy. At fleet scale
// the right aggressiveness depends on the workload:
// long-haul services want the floor held down hard (tokens and log entries
// are replayed at every restart), forensic/bench runs want history kept.
// This module makes the trade a runtime knob and reports exact
// reclaimed-bytes / held-intervals telemetry so the choice is measurable:
//
//   kOff          — never reclaim; still reports held-state telemetry.
//   kConservative — keep `keep_checkpoints` covered checkpoints behind the
//                   stability frontier (cheap re-rollback insurance and
//                   post-hoc debugging), reclaim older ones.
//   kStandard     — the paper's rule: reclaim strictly older than the
//                   newest covered checkpoint (baseline behavior).
//   kAggressive   — kStandard plus synchronous-token-log compaction: the
//                   token log is replayed in order at every restart and
//                   only the LAST token per (process, version) determines
//                   the rebuilt history record, so earlier duplicates for
//                   the same incarnation are exact dead weight. Compaction
//                   preserves the replayed history byte-for-byte.
//
// "Intervals" follow the paper's state-interval vocabulary: one logged
// message = one state interval; held_intervals is the number still
// addressable in the log after the pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace optrec {
class StableStorage;
class StabilityTracker;
}  // namespace optrec

namespace optrec::scale {

enum class GcLevel : std::uint8_t {
  kOff = 0,
  kConservative = 1,
  kStandard = 2,
  kAggressive = 3,
};

struct GcPolicy {
  GcLevel level = GcLevel::kStandard;
  /// kConservative: covered checkpoints to retain behind the frontier.
  std::uint32_t keep_checkpoints = 2;
};

/// Parse "off" / "conservative" / "standard" / "aggressive"; throws
/// std::invalid_argument on anything else.
GcLevel parse_gc_level(const std::string& text);
const char* gc_level_name(GcLevel level);

struct TunedGcResult {
  std::size_t checkpoints_reclaimed = 0;
  std::size_t log_entries_reclaimed = 0;  // state intervals freed
  std::size_t tokens_compacted = 0;       // kAggressive only
  std::size_t reclaimed_bytes = 0;        // exact stable-footprint delta
  std::size_t held_intervals = 0;         // log entries still addressable
  std::size_t held_checkpoints = 0;
  std::size_t held_bytes = 0;             // stable footprint after the pass
};

/// One tuned GC pass. Safe to call at any time; kOff and uncovered states
/// reclaim nothing but still fill the held_* telemetry.
TunedGcResult run_gc_tuned(StableStorage& storage,
                           const StabilityTracker& tracker,
                           const GcPolicy& policy);

}  // namespace optrec::scale
