// WorkerHost: the per-process worker threads of the real-time backend.
//
// Every TcpNode hosts its share of the protocol processes here, one OS
// thread per process (a one-node fleet hosts them all). Each worker owns
// its process object (the same ProcessBase subclasses the simulator hosts,
// built through src/harness/protocol_factory), a private timer queue, a
// private Metrics block, and the consumer end of its LiveChannel. The
// worker loop fires due timers, pops ready frames, and hands decoded
// messages and tokens to the process.
//
// Failure injection is real: a kCrash frame makes the worker call
// ProcessBase::crash() and EXIT ITS THREAD. The owner's supervisor loop
// calls drain_exited(), which joins the dead thread and respawns a fresh
// one; it fires the pending restart timer, so recovery runs through a
// genuine thread death and rebirth. While a process is down its wire
// frames are parked back into the channel with retry_interval backoff — the
// reliable transport of the paper's model. A worker flagged `warm` (its
// storage was rebuilt from disk before spawn) boots through
// start_recovered() instead of start().
//
// After every step a worker publishes is_up/pending/progress-signature
// mirrors as atomics, so the supervisor never touches process internals
// while threads run. Each worker also mirrors its Metrics into per-process
// gauges of the node's MetricsRegistry and records delivery latency into
// the registry's optrec_delivery_latency_us{pid} histogram. Given a
// DurableBackend, it mirrors the in-memory stable footprint into the
// backend's counters for the scrape thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/app/workload.h"
#include "src/durable/durable_storage.h"
#include "src/harness/metrics.h"
#include "src/harness/protocol_factory.h"
#include "src/live/delivery_counters.h"
#include "src/live/live_channel.h"
#include "src/live/live_clock.h"
#include "src/live/worker_timers.h"
#include "src/runtime/process_base.h"
#include "src/telemetry/histogram.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/wiring.h"
#include "src/trace/trace_event.h"
#include "src/truth/causality_oracle.h"
#include "src/util/rng.h"

namespace optrec {

class WorkerHost {
 public:
  /// What the workers are built from; every field is copied from the
  /// owner's own configuration.
  struct Spec {
    ProtocolKind protocol = ProtocolKind::kDamaniGarg;
    std::size_t n = 0;
    std::uint64_t seed = 1;
    WorkloadSpec workload;
    ProcessConfig process;
    CausalityOracle* oracle = nullptr;
    TraceRecorder* trace = nullptr;
    /// Mirror target for gauges and latency (required).
    telemetry::MetricsRegistry* registry = nullptr;
    /// Upper bound on one worker wait, so mirrors refresh even when idle.
    SimTime max_block = millis(5);
    /// Backoff between delivery attempts while the receiver is down.
    SimTime retry_interval = millis(2);
  };

  enum class State : int { kRunning = 0, kExitedCrash, kExitedStop };

  struct Worker {
    explicit Worker(std::uint64_t rng_seed) : rng(rng_seed) {}

    ProcessId pid = 0;
    LiveChannel* channel = nullptr;
    std::unique_ptr<WorkerTimers> timers;
    std::unique_ptr<ProcessBase> proc;
    Metrics metrics;  // worker-private; merged post-join
    /// Send-to-handler latency of every delivered frame (registry-owned).
    telemetry::AtomicHistogram* latency = nullptr;
    std::unique_ptr<telemetry::ProcessGauges> gauges;
    /// Optional file-backed persistence, attached before spawn.
    std::unique_ptr<DurableBackend> durable;
    /// Storage was rebuilt from disk before spawn (the backend's
    /// DurableStats say what was recovered).
    bool warm = false;
    Rng rng;  // channel-pick randomness, worker-thread only
    std::thread thread;
    bool started = false;  // proc->start() ran (spawn/join handoff)
    bool joined = true;    // supervisor-side bookkeeping

    // Supervisor-visible mirrors, refreshed by the worker after each step.
    std::atomic<bool> up{false};
    std::atomic<std::uint64_t> pending{0};
    std::atomic<std::uint64_t> signature{0};
    std::atomic<State> state{State::kRunning};
  };

  /// Builds a worker for every pid whose `channel_of` is non-null. A seed
  /// is drawn for every pid in pid order, so a worker's RNG stream is a
  /// function of (seed, pid), not of placement.
  WorkerHost(LiveClock& clock, Transport& transport,
             DeliveryCounters& counters,
             const std::function<LiveChannel*(ProcessId)>& channel_of,
             const Spec& spec);
  /// Emergency shutdown for runs abandoned mid-flight.
  ~WorkerHost();

  WorkerHost(const WorkerHost&) = delete;
  WorkerHost& operator=(const WorkerHost&) = delete;

  /// Hosted workers in pid order. Touch worker internals only before
  /// spawn_all() or after stop_all().
  const std::vector<std::unique_ptr<Worker>>& workers() const {
    return workers_;
  }

  /// Queue a crash of `pid` at runtime `at`; ignored for pids hosted
  /// elsewhere. Call before spawn_all().
  void schedule_crash(ProcessId pid, SimTime at);
  void spawn_all();
  /// Wait up to `wait` for worker exits, then join them; crashed workers
  /// are respawned when `respawn_crashed`.
  void drain_exited(bool respawn_crashed, SimTime wait);
  /// Stop every running worker and join them all.
  void stop_all();

  /// Every planned crash consumed; every worker running, up, and holding
  /// nothing back.
  bool quiet() const;
  /// Worker signatures folded with the transport's drop count.
  std::uint64_t progress_signature() const;
  /// Post-join: fold every worker's Metrics and latency samples.
  void merge_into(Metrics& metrics, telemetry::FixedHistogram& latency) const;

 private:
  void worker_main(Worker& w);
  void sync_mirrors(Worker& w);
  void spawn(Worker& w);
  void exit_as(Worker& w, State state);
  bool all_joined() const;

  LiveClock& clock_;
  DeliveryCounters& counters_;
  const SimTime max_block_;
  const SimTime retry_interval_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Worker*> by_pid_;  // null for pids hosted elsewhere
  std::atomic<std::uint64_t> crashes_pending_{0};

  std::mutex exit_mu_;
  std::condition_variable exit_cv_;
  std::vector<ProcessId> exited_;
};

}  // namespace optrec
