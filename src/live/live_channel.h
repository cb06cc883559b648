// MPSC frame channel: one inbox per live process.
//
// Many worker threads push wire-encoded frames; the owning worker pops.
// Delivery order is deliberately NOT FIFO: pop_ready picks a uniformly
// random frame among those whose delay has expired, so the live transport
// exercises the paper's no-ordering-assumption property by construction
// (Table 1), the way the simulator's random delivery delays do.
//
// Control frames (crash/stop injection) ride the same channel but take
// priority over wire frames once due, so an injected crash cannot be
// starved by a deep backlog of application traffic.
//
// Data plane (this is the hot path of the whole live/TCP substrate):
//   producers --lock-free--> MpscRing --consumer drains--> route:
//        due now  -> due_ctrl_ / due_wire_ (uniform-random pick)
//        delayed  -> delayed_ (consumer-private min-heap on not_before)
// Producers never take a lock (ring fast path) and never broadcast a
// condvar; they ring a Doorbell whose slow path only fires when the
// consumer is actually parked. Frames not due yet (a scheduled crash, a
// frame parked while its receiver is down, an injected delay) wait in the
// heap; a frame leaves it exactly when its not_before passes, never early,
// and the heap top is the consumer's sleep deadline. Frame payloads are
// shared FrameBytes, so a push moves a pointer, not bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/live/live_clock.h"
#include "src/sim/time.h"
#include "src/util/doorbell.h"
#include "src/util/ids.h"
#include "src/util/mpsc_ring.h"
#include "src/util/rng.h"
#include "src/wire/wire_codec.h"

namespace optrec {

struct LiveFrame {
  enum class Kind : std::uint8_t {
    kWire = 0,   // an encoded message/token frame (src/wire/wire_codec.h)
    kCrash = 1,  // failure injection: the owning worker must crash and exit
    kStop = 2,   // shutdown: the owning worker must exit cleanly
  };
  Kind kind = Kind::kWire;
  ProcessId src = kNoProcess;
  /// Wire image (kWire only), shared by reference: fan-out sends clone the
  /// pointer, never the bytes. The receiving worker decodes it; payloads cross
  /// the thread boundary only as immutable bytes, the way a socket would.
  FrameBytes wire;
  /// kWire accounting without a decode: app message vs control/token.
  bool app = false;
  bool token = false;
  /// Earliest runtime instant the frame may be popped (injected delay for
  /// wire frames, crash time for kCrash).
  SimTime not_before = 0;
  /// When the sender pushed it (delivery-latency accounting).
  SimTime sent_at = 0;
};

class LiveChannel {
 public:
  void push(LiveFrame frame);

  /// Block until some frame is ready (not_before <= now) or `wait_until`
  /// passes; return a ready frame or nullopt on timeout. Due control frames
  /// win; among due wire frames the pick is uniformly random via `rng`.
  /// Single consumer: only the owning worker calls this.
  std::optional<LiveFrame> pop_ready(const LiveClock& clock,
                                     SimTime wait_until, Rng& rng);

  /// Frames inside the channel (ring + delay heap + due sets). Lock-free; safe
  /// from any thread.
  std::size_t size() const { return size_.load(std::memory_order_acquire); }
  /// Most frames ever simultaneously queued in the producer ring.
  std::size_t ring_high_water() const { return ring_.high_water(); }
  /// Pushes that spilled past the lock-free ring into the overflow path.
  std::uint64_t ring_overflows() const { return ring_.overflow_pushes(); }

 private:
  /// Consumer only: drain the ring into the due sets or the delay heap,
  /// then move every matured heap frame into its due set.
  void intake(SimTime now);
  void route_due(LiveFrame frame);

  MpscRing<LiveFrame> ring_;
  Doorbell bell_;
  std::atomic<std::size_t> size_{0};

  // Consumer-private state (owning worker thread only).
  std::vector<LiveFrame> delayed_;  // min-heap on not_before
  std::vector<LiveFrame> due_wire_;
  std::vector<LiveFrame> due_ctrl_;
};

}  // namespace optrec
