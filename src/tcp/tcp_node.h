// TcpNode: one node's share of a TCP-backed recovery fleet.
//
// Hosts the protocol processes the topology assigns to this node, each as
// a real OS thread (src/live/worker_host.h: private timers, private
// metrics, crash = thread death + supervisor respawn), wired to a
// TcpTransport. A cluster is one TcpNode per machine/process plus the
// topology file; the in-process variant for tests and benches is
// src/tcp/tcp_cluster.h, and with one node it is the threads backend.
//
// Distributed quiescence: a killed node's counters vanish, so nodes do not
// compare counters; the cluster settles by gossip instead. Every node
// folds its local conditions — workers up, nothing pending, every local
// app message and token handled, no app message queued for a peer, no
// unacked token — into a NodeStatusReport and streams it to node 0 (the
// coordinator) every status tick. Control messages (checkpoint markers,
// stability vectors) do not hold the claim back, as in Scenario::run. The coordinator declares quiescence when
// every node claims quiet on a fresh report AND the cluster-wide progress
// signature has been stable for a settle window, then broadcasts kShutdown
// (retried until acked) carrying the exit code every node returns. A node
// that never hears a shutdown exits 4 at its own time cap, so a dead
// coordinator cannot hang the fleet.
//
// Node-kill recovery: a respawned node runs with `recover = true`. With a
// data dir, each local process is first rebuilt from its durable state
// (latest checkpoint + WAL replay, src/durable/) and boots through the
// restart path — announcing a failure token at the RESTORED point, so
// peers only roll back what the disk genuinely lost. A pid with no usable
// durable state (no data dir, or corrupt files) instead crashes right
// after start(): the fresh incarnation announces a version-0 failure token
// and the cluster absorbs the full "lost everything since the initial
// checkpoint" failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/app/workload.h"
#include "src/durable/durable_storage.h"
#include "src/harness/failure_plan.h"
#include "src/harness/metrics.h"
#include "src/harness/protocol_factory.h"
#include "src/live/live_clock.h"
#include "src/live/worker_host.h"
#include "src/runtime/process_base.h"
#include "src/service/service_frontend.h"
#include "src/tcp/tcp_transport.h"
#include "src/tcp/topology.h"
#include "src/telemetry/histogram.h"
#include "src/telemetry/http_endpoint.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/wiring.h"
#include "src/trace/trace_event.h"
#include "src/truth/causality_oracle.h"
#include "src/util/json.h"
#include "src/util/stats.h"

namespace optrec {

struct TcpNodeConfig {
  TcpTopology topology;
  std::uint32_t node = 0;
  std::uint64_t seed = 1;
  ProtocolKind protocol = ProtocolKind::kDamaniGarg;
  WorkloadSpec workload;
  ProcessConfig process;
  /// Crash schedule over GLOBAL process ids; events for remote pids are
  /// ignored, so every node can be handed the same plan.
  std::vector<CrashEvent> crashes;
  /// Respawned-after-kill mode. With a data dir, each local process is
  /// restored from its on-disk state (latest checkpoint + WAL replay) and
  /// announces its failure at the restored point; pids with no usable
  /// durable state — and every pid when there is no data dir — fall back
  /// to crash-announcing right after start, the version-0 "lost
  /// everything" failure.
  bool recover = false;
  /// Per-node durable storage root; each local pid persists under
  /// `<data_dir>/p<pid>`. Empty = in-memory stable storage only.
  std::string data_dir;
  SimTime time_cap = seconds(30);
  /// Cluster-signature stability window required before shutdown.
  SimTime settle = millis(150);
  /// Status gossip period (and the supervisor's polling period).
  SimTime status_interval = millis(25);
  /// Upper bound on one worker wait, so mirrors refresh even when idle.
  SimTime max_block = millis(5);
  /// Shared validation hooks (in-process clusters); non-owning, may be
  /// null. Cross-machine runs validate per-node traces post-hoc instead.
  CausalityOracle* oracle = nullptr;
  TraceRecorder* trace = nullptr;
  /// Node incarnation id; 0 derives one from the wall clock.
  std::uint64_t epoch = 0;
  /// Serve the telemetry HTTP endpoint (/metrics, /metrics.json, /cluster,
  /// /healthz) from this node's IO thread.
  bool telemetry = false;
  /// Endpoint port override; 0 falls back to the topology's telemetry_port
  /// for this node, and an ephemeral port when that is 0 too.
  std::uint16_t telemetry_port = 0;
  /// Serve the client-facing replicated KV service (src/service/) from this
  /// node's IO thread: requests are injected as protocol messages, replies
  /// are the output-commit-gated outputs released by stability. A serving
  /// node never settles to quiescence (clients drive the load externally);
  /// it exits 0 at the time cap instead of 4.
  bool serve = false;
  /// Service port override; 0 falls back to the topology's service_port
  /// for this node, and an ephemeral port when that is 0 too.
  std::uint16_t service_port = 0;
};

/// The socket, durable and service counters of one node (TcpNodeResult)
/// or a whole fleet (TcpClusterResult), and their --metrics-json blocks.
struct TcpCounters {
  TcpTransport::TcpStats tcp;
  /// Durable-storage counters summed over the processes (zeroed when no
  /// data dir was configured).
  struct DurableSummary : DurableStats {
    bool enabled = false;
  } durable;
  /// Client-service counters (zeroed unless `serve` was set).
  struct ServiceSummary : service::ServiceStats {
    bool enabled = false;
  } service;

  /// Fold in another node's counters, row by row.
  void add(const TcpCounters& other);
  /// The "tcp" block, plus "durable" and "service" when enabled.
  void write_json(JsonWriter& w) const;
  /// The same rows as lines of the human-readable run summary.
  void print() const;
};

struct TcpNodeResult : TcpCounters {
  /// Shared runner convention: 0 clean quiescence, 4 time cap.
  int exit_code = 4;
  bool quiesced = false;
  SimTime wall_time = 0;
  Metrics metrics;
  Network::Stats net;
  /// Send-to-handler latency of frames delivered on this node, micros
  /// (cross-node values use the realtime-clock delta carried in the
  /// envelope). The shared fixed-bucket histogram: p50/p90/p99 via
  /// percentile().
  telemetry::FixedHistogram delivery_latency_us;
};

class TcpNode {
 public:
  explicit TcpNode(TcpNodeConfig config);
  ~TcpNode();

  TcpNode(const TcpNode&) = delete;
  TcpNode& operator=(const TcpNode&) = delete;

  /// This node's listener port (resolves port-0 topologies).
  std::uint16_t listen_port() const { return transport_.listen_port(); }
  /// Forward an ephemeral-port exchange to the transport (before run()).
  void set_peer_port(std::uint32_t node, std::uint16_t port) {
    transport_.set_peer_port(node, port);
  }

  /// Spawn workers + IO, run the quiescence protocol to shutdown or the
  /// time cap, join everything. May be called once.
  TcpNodeResult run();

  // Post-run access.
  TcpTransport& transport() { return transport_; }
  const LiveClock& clock() const { return clock_; }
  const TcpNodeConfig& config() const { return config_; }

  /// Live metrics store (always populated; the HTTP endpoint renders it).
  telemetry::MetricsRegistry& registry() { return registry_; }
  /// Bound telemetry port, 0 when the endpoint is disabled.
  std::uint16_t telemetry_port() const {
    return http_ == nullptr ? 0 : http_->port();
  }
  /// Bound client-service port, 0 when not serving.
  std::uint16_t service_port() const {
    return frontend_ == nullptr ? 0 : frontend_->port();
  }
  /// Protocol/transport counter sums for the status gossip and /cluster
  /// table. Thread-safe (reads mirrors and atomics only).
  NodeStatsBlock stats_block() const;

 private:
  /// Back a worker with file storage under the data dir; on --recover,
  /// rebuild its storage from disk first and flag it warm.
  void attach_durable(WorkerHost::Worker& w);
  /// Every local condition of the node's quiet claim.
  bool local_quiet() const;
  /// Coordinator: run the shutdown broadcast until every peer acked or the
  /// grace deadline passes.
  void coordinate_shutdown(std::uint8_t exit_code, SimTime grace);

  void setup_telemetry();
  void setup_service();

  TcpNodeConfig config_;
  LiveClock clock_;
  TcpTransport transport_;
  telemetry::MetricsRegistry registry_;
  std::unique_ptr<telemetry::TelemetryHttpServer> http_;
  std::unique_ptr<service::ServiceFrontend> frontend_;
  /// Per-incarnation send_seq for injected client requests; seeded from the
  /// transport epoch (wall-clock micros) so a respawned node's injections
  /// never collide with log-rebuilt duplicate-filter keys.
  std::atomic<std::uint64_t> inject_seq_{0};
  telemetry::Gauge* quiet_gauge_ = nullptr;
  WorkerHost host_;  // local processes only; mirrors into registry_
  bool ran_ = false;
};

}  // namespace optrec
