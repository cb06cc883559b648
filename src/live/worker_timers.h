// Per-worker TimerService for the real-time backend.
//
// Each live process owns one WorkerTimers; every schedule/cancel/fire runs
// on that process's worker thread (or on threads sequenced with it by the
// spawn/join handoff around a crash-respawn), so no locking is needed. The
// worker loop interleaves fire_due() with channel pops, waiting no longer
// than next_deadline() so timers fire close to on time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_set>
#include <utility>

#include "src/runtime/env.h"
#include "src/sim/time.h"

namespace optrec {

class WorkerTimers : public TimerService {
 public:
  explicit WorkerTimers(const Clock& clock) : clock_(&clock) {}

  TimerId schedule_after(SimTime delay, std::function<void()> fn) override;
  void cancel(TimerId id) override;

  /// Due time of the earliest pending timer; kSimTimeMax when none.
  SimTime next_deadline() const;

  /// Run every timer due at the clock's current time. Callbacks may
  /// schedule or cancel further timers.
  void fire_due();

  bool empty() const { return queue_.empty(); }

 private:
  const Clock* clock_;
  TimerId next_id_ = 1;
  std::multimap<SimTime, std::pair<TimerId, std::function<void()>>> queue_;
  std::unordered_set<TimerId> cancelled_;
};

}  // namespace optrec
