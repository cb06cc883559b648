// Live Transport: wire-encoded frames over per-process MPSC channels.
//
// The thread-backed counterpart of src/net/Network. Every send serializes
// the message/token through src/wire/wire_codec and pushes the byte image
// into the destination's LiveChannel with an injected delivery delay; the
// receiving worker decodes it back. Channels are non-FIFO by construction
// (random ready-frame pick), and faults — drop, duplicate, extra delay —
// are injected per sender from deterministic per-sender streams.
//
// Thread contract:
//   * attach() runs on the supervisor thread before workers spawn.
//   * send()/broadcast_token()/send_token() for source process p run only
//     on p's worker thread (protocols always send as themselves), so the
//     per-sender fault RNGs need no locks.
//   * broadcast_token() does its accounting and RNG draws on the caller,
//     then hands the encoded frame to a dedicated fan-out thread which does
//     the O(n) channel pushes — a recovering process announces its failure
//     without stalling behind the unicast loop (ROADMAP: sharded token
//     broadcast). Token in-flight counts are bumped synchronously, so
//     quiescence can never observe a not-yet-fanned-out broadcast as done.
//   * Delivery accounting (counters(), src/live/delivery_counters.h) is
//     atomics only: the receiving worker notes deliveries, and stats()
//     snapshots may run anywhere, any time.
// As in the simulator, application messages and tokens are retried while
// the receiver is down (reliable transport): the worker loop requeues the
// undecoded frame with retry_interval backoff. Information loss comes only
// from crash-wiped volatile state — the paper's failure model — unless
// drop_prob explicitly injects transport loss.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/harness/failure_plan.h"
#include "src/live/delivery_counters.h"
#include "src/live/live_channel.h"
#include "src/live/live_clock.h"
#include "src/net/message.h"
#include "src/runtime/env.h"
#include "src/trace/trace_event.h"
#include "src/util/ids.h"
#include "src/util/rng.h"

namespace optrec {

struct LiveFaultConfig {
  /// Injected delivery delay range (real microseconds).
  SimTime min_delay = micros(50);
  SimTime max_delay = millis(2);
  /// Probability an application message is silently dropped. Control
  /// messages and tokens stay reliable, mirroring NetworkConfig.
  double drop_prob = 0.0;
  /// Probability an application message is delivered twice (independent
  /// delays), exercising the receiver-side duplicate filter for real.
  double duplicate_prob = 0.0;
  /// Backoff between delivery attempts while the receiver is down.
  SimTime retry_interval = millis(2);
  /// Scripted link partitions (same semantics as Network::set_partition:
  /// unlisted processes share group 0, traffic crossing group boundaries is
  /// held — never dropped — until the heal time). Times are runtime
  /// microseconds, like CrashEvent::at.
  std::vector<PartitionEvent> partitions;
};

class LiveTransport : public Transport {
 public:
  LiveTransport(const LiveClock& clock, std::size_t n, std::uint64_t seed,
                LiveFaultConfig faults);
  ~LiveTransport() override;

  void attach(ProcessId pid, Endpoint* endpoint) override;
  MsgId send(Message msg) override;
  void broadcast_token(const Token& token) override;
  void send_token(ProcessId dst, const Token& token) override;

  /// Attach a trace recorder (thread-safe emit); null detaches.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  std::size_t size() const { return channels_.size(); }
  LiveChannel& channel(ProcessId pid) { return *channels_.at(pid); }
  Endpoint* endpoint(ProcessId pid) const { return endpoints_.at(pid); }
  const LiveFaultConfig& faults() const { return faults_; }

  /// Delivery accounting (worker host, quiescence, stats).
  DeliveryCounters& counters() { return counters_; }
  const DeliveryCounters& counters() const { return counters_; }

 private:
  /// One queued broadcast: the frame is encoded once into a shared
  /// FrameRef and fanned out to every destination by the fan-out thread, so
  /// the announcing worker is never stalled behind an O(n) unicast loop and
  /// the n-1 pushes share one byte image (delays are pre-drawn on the
  /// caller to keep the per-sender RNGs single-threaded).
  struct PendingBroadcast {
    ProcessId src = kNoProcess;
    FrameRef wire;
    std::vector<std::pair<ProcessId, SimTime>> dst_delays;
  };

  SimTime draw_delay(Rng& rng);
  /// Earliest instant >= t at which the src->dst link is outside every
  /// scripted partition window (t itself when none applies).
  SimTime link_clear_at(ProcessId src, ProcessId dst, SimTime t) const;
  void push_wire(ProcessId src, ProcessId dst, FrameRef wire, bool app,
                 bool token, SimTime delay);
  void fanout_main();

  const LiveClock& clock_;
  LiveFaultConfig faults_;
  std::vector<std::unique_ptr<LiveChannel>> channels_;
  std::vector<Endpoint*> endpoints_;
  /// Fault/delay streams, indexed by sending process (worker-thread-local
  /// by the thread contract above).
  std::vector<Rng> send_rng_;
  TraceRecorder* trace_ = nullptr;

  std::mutex fanout_mu_;
  std::condition_variable fanout_cv_;
  std::deque<PendingBroadcast> fanout_queue_;
  bool fanout_stop_ = false;
  std::thread fanout_thread_;

  std::atomic<MsgId> next_msg_id_{1};
  DeliveryCounters counters_;
};

}  // namespace optrec
