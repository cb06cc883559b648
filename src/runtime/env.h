// Backend-neutral runtime services: Clock, TimerService, Transport.
//
// Protocol code (ProcessBase and its subclasses) talks to the outside world
// only through these three interfaces, bundled into a RuntimeEnv. Two
// backends implement them:
//   * the discrete-event simulator (src/sim/Simulation is the Clock and the
//     TimerService, src/net/Network is the Transport) — deterministic,
//     single-threaded, seed-replayable;
//   * the real-time backend (src/tcp/ over the src/live/ substrate) — one
//     OS thread per process, MPSC channels carrying wire-encoded frames,
//     and frames to processes on other nodes crossing real nonblocking
//     sockets as length-delimited envelopes, so one fleet spans multiple
//     OS processes or machines. A one-node fleet opens no peer socket.
// RuntimeEnv's method names mirror the Simulation/Network surface the
// protocols were written against, so DgProcess and the baselines run
// unmodified on either backend.
#pragma once

#include <functional>
#include <utility>

#include "src/net/message.h"
#include "src/sim/time.h"
#include "src/util/ids.h"

namespace optrec {

class Endpoint;

/// Handle for cancelling a scheduled timer. Shared with the simulator's
/// event ids (src/sim/scheduler.h declares the same alias).
using TimerId = std::uint64_t;

/// Monotonic time source. Simulated microseconds on the simulator; real
/// microseconds since runtime start on the live backend.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual SimTime now() const = 0;
};

/// One-shot timers. On the simulator these are plain scheduler events; on
/// the live backend each worker thread owns a private timer queue, so
/// schedule/cancel/fire all happen on the owning process's thread.
class TimerService {
 public:
  virtual ~TimerService() = default;
  virtual TimerId schedule_after(SimTime delay, std::function<void()> fn) = 0;
  /// Cancelling a fired or unknown timer is a no-op.
  virtual void cancel(TimerId id) = 0;
};

/// Message/token delivery fabric connecting the processes of one run.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Register the endpoint for `pid`; must cover 0..n-1 before traffic
  /// starts. Re-attaching replaces.
  virtual void attach(ProcessId pid, Endpoint* endpoint) = 0;

  /// Send an application or control message; assigns and returns the
  /// substrate message id. src != dst required.
  virtual MsgId send(Message msg) = 0;

  /// Reliably deliver `token` to every process except `token.from`.
  virtual void broadcast_token(const Token& token) = 0;
};

/// The bundle of services a process runs against. A small value object of
/// non-owning pointers; the backend outlives the processes it hosts.
///
/// Convenience forwarders are named after the Simulation methods they shadow
/// (`now`, `schedule_after`, `cancel`) so `sim().now()` in protocol code
/// reads the same on both backends.
class RuntimeEnv {
 public:
  RuntimeEnv(Clock& clock, TimerService& timers, Transport& transport)
      : clock_(&clock), timers_(&timers), transport_(&transport) {}

  SimTime now() const { return clock_->now(); }
  TimerId schedule_after(SimTime delay, std::function<void()> fn) {
    return timers_->schedule_after(delay, std::move(fn));
  }
  void cancel(TimerId id) { timers_->cancel(id); }

  Clock& clock() { return *clock_; }
  TimerService& timers() { return *timers_; }
  Transport& transport() { return *transport_; }

 private:
  Clock* clock_;
  TimerService* timers_;
  Transport* transport_;
};

}  // namespace optrec
