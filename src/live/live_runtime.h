// Live multi-threaded runtime: the protocol off the simulator.
//
// Runs each recovery process as a real OS thread (src/live/worker_host.h:
// private timers and metrics, crash = thread death + supervisor respawn)
// against the same protocol code the simulator hosts. The shared pieces —
// LiveClock, LiveTransport, the causality oracle, the trace recorder — are
// thread-safe by construction.
//
// Quiescence mirrors Scenario::run(): all planned crashes consumed, every
// process up, nothing application-relevant in flight (app messages, tokens,
// protocol-held messages), and the progress signature stable across a
// settle slice. Post-join, per-worker metrics and latency samples are
// merged and the oracle/trace are safe to query.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/app/workload.h"
#include "src/harness/failure_plan.h"
#include "src/harness/metrics.h"
#include "src/harness/protocol_factory.h"
#include "src/live/live_clock.h"
#include "src/live/live_transport.h"
#include "src/live/worker_host.h"
#include "src/runtime/process_base.h"
#include "src/telemetry/histogram.h"
#include "src/trace/trace_event.h"
#include "src/truth/causality_oracle.h"

namespace optrec {

struct LiveConfig {
  std::size_t n = 4;
  std::uint64_t seed = 1;
  ProtocolKind protocol = ProtocolKind::kDamaniGarg;
  WorkloadSpec workload;
  ProcessConfig process;
  LiveFaultConfig faults;
  /// Crash schedule; `at` is runtime microseconds (wall time since start).
  std::vector<CrashEvent> crashes;
  bool enable_oracle = true;
  bool enable_trace = false;
  /// Hard cap on wall time; a run that hits it reports quiesced = false.
  SimTime time_cap = seconds(30);
  /// Settle-slice length for the quiescence detector (and the supervisor's
  /// polling period).
  SimTime settle_slice = millis(25);
  /// Upper bound on one worker wait, so mirrors refresh even when idle.
  SimTime max_block = millis(5);
};

struct LiveResult {
  bool quiesced = false;
  /// Wall time consumed by the run, in microseconds.
  SimTime wall_time = 0;
  /// All workers' metrics folded together.
  Metrics metrics;
  Network::Stats net;
  /// Send-to-handler latency of every delivered wire frame, microseconds.
  /// Shared fixed-bucket histogram: p50/p90/p99 via percentile().
  telemetry::FixedHistogram delivery_latency_us;
};

class LiveRuntime {
 public:
  explicit LiveRuntime(LiveConfig config);

  LiveRuntime(const LiveRuntime&) = delete;
  LiveRuntime& operator=(const LiveRuntime&) = delete;

  /// Spawn workers, inject the crash plan, run to quiescence or the time
  /// cap, join everything. May be called once.
  LiveResult run();

  // Post-run (or pre-run) access only; never touch these while run() is
  // live on another thread's stack.
  CausalityOracle* oracle() { return oracle_.get(); }
  /// Non-null iff `config.enable_trace`.
  TraceRecorder* trace() { return trace_.get(); }
  LiveTransport& transport() { return transport_; }
  const LiveClock& clock() const { return clock_; }
  std::size_t size() const { return host_.workers().size(); }
  ProcessBase& process(ProcessId pid);
  const LiveConfig& config() const { return config_; }

 private:
  bool quiet_now() const;

  LiveConfig config_;
  LiveClock clock_;
  LiveTransport transport_;
  std::unique_ptr<CausalityOracle> oracle_;
  std::unique_ptr<TraceRecorder> trace_;
  WorkerHost host_;  // declared last: its workers stop before the rest dies
  bool ran_ = false;
};

}  // namespace optrec
