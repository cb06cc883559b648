// Stability tracking for output commit and garbage collection
// (paper Section 6.5, item 2 / Remark 2), and the one garbage collector.
//
// Each process advertises, per (process, version), the highest timestamp of
// its own states that are *recoverable* — reconstructible from stable
// storage. Advertisements spread as control broadcasts of the whole vector:
// a DG process broadcasts right after a log flush whenever it has sent an
// app message from a state it has not yet advertised (so a receiver's gated
// outputs commit at flush latency), and on a periodic timer as a liveness
// backstop. Remark 2 puts no constraint on when log vectors spread. A
// state whose FTVC is covered by the learned stable vector depends only on
// recoverable states: it can never be lost and never become an orphan, so
// outputs it produced may be committed to the environment, and storage that
// only exists to re-create older states can be reclaimed.
//
// Cross-timeline caution: after a rollback, a process re-uses timestamps of
// its discarded states under the paper's `ts++` rule, which would make stale
// advertisements ambiguous. The DG process therefore enables a timestamp
// jump past the discarded suffix whenever stability tracking is on
// (DESIGN.md §3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "src/clocks/ftvc.h"
#include "src/util/bytes.h"
#include "src/util/ids.h"

namespace optrec {

class StableStorage;

class StabilityTracker {
 public:
  /// Seed with n processes: version 0, timestamp 0 of everyone is trivially
  /// stable (their initial checkpoints exist from start()).
  explicit StabilityTracker(std::size_t n);

  /// Learn (or re-assert) that states of `pid` version `ver` up to `ts` are
  /// recoverable. Merges by max.
  void note_stable(ProcessId pid, Version ver, Timestamp ts);

  std::optional<Timestamp> stable_ts(ProcessId pid, Version ver) const;

  /// Are the states of `pid` up to entry `e` recoverable?
  bool covers(ProcessId pid, const FtvcEntry& e) const;
  /// Is every dependency recorded in `clock` recoverable?
  bool covers(const Ftvc& clock) const;

  Bytes encode() const;
  /// Merge a peer's encode() output. The whole vector is decoded before
  /// anything is merged: a truncated vector, trailing bytes, or an entry
  /// whose pid is not below n leaves the tracker untouched and returns
  /// false.
  bool merge_encoded(const Bytes& gossip);
  void merge(const StabilityTracker& other);

  std::size_t entry_count() const { return stable_.size(); }

 private:
  std::size_t n_;
  std::map<std::pair<ProcessId, Version>, Timestamp> stable_;
};

/// What one garbage-collection pass freed and what it left. "Intervals"
/// follow the paper's state-interval vocabulary: one logged message is one
/// state interval.
struct GcResult {
  std::size_t checkpoints_reclaimed = 0;
  std::size_t log_entries_reclaimed = 0;
  std::size_t reclaimed_bytes = 0;  // exact stable-footprint delta
  std::size_t held_intervals = 0;   // log entries still addressable
};

/// Remark 2's rule: reclaim every checkpoint older than the newest one the
/// tracker covers, then every log entry before the oldest surviving
/// checkpoint's replay cursor. Safe to call at any time; with nothing
/// covered it reclaims nothing but still reports held_intervals.
GcResult collect_garbage(StableStorage& storage,
                         const StabilityTracker& tracker);

}  // namespace optrec
