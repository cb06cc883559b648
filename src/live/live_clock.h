// Real-time Clock backend for the worker threads (src/live/, src/tcp/).
//
// SimTime on this backend means microseconds of wall time since the runtime
// was constructed, measured on the monotonic clock. All live components
// (channels, timers, transport, supervisor) share one LiveClock so their
// notions of "now" agree.
#pragma once

#include <chrono>

#include "src/runtime/env.h"
#include "src/sim/time.h"

namespace optrec {

class LiveClock : public Clock {
 public:
  LiveClock() : start_(std::chrono::steady_clock::now()) {}

  SimTime now() const override {
    return static_cast<SimTime>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  /// Convert a runtime instant back to an absolute steady_clock point, for
  /// condition-variable waits. Saturates at ~292 years past start, where
  /// the steady clock's signed representation would overflow.
  std::chrono::steady_clock::time_point to_time_point(SimTime t) const {
    constexpr SimTime kFarFuture = seconds(3600ull * 24 * 365);
    if (t > kFarFuture) t = kFarFuture;
    return start_ + std::chrono::microseconds(t);
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace optrec
