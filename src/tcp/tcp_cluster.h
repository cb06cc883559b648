// TcpCluster: a whole TCP fleet inside one OS process.
//
// Builds a loopback topology with ephemeral ports, constructs one TcpNode
// per node id (binding resolves the kernel-picked ports), exchanges the
// ports, and runs every node on its own supervisor thread over real
// sockets. All nodes share one CausalityOracle and one TraceRecorder, so
// tests and benches get the same cross-process validation the simulator
// has — something a multi-machine deployment can only approximate by
// merging per-node traces after the fact.
//
// This is the loopback configuration the TCP integration tests and
// bench_tcp_throughput use, and with nodes = 1 it is the threads backend:
// one node hosts every process and opens no socket but its listener. Real
// multi-machine runs use tools/optrec_node with a shared topology file
// instead.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/tcp/tcp_node.h"

namespace optrec {

struct TcpClusterConfig {
  std::size_t n = 4;       // protocol processes
  std::size_t nodes = 2;   // TCP nodes they spread over
  std::uint64_t seed = 1;
  ProtocolKind protocol = ProtocolKind::kDamaniGarg;
  WorkloadSpec workload;
  ProcessConfig process;
  TcpFaultConfig faults;
  /// Crash schedule over global pids; each node applies its local share.
  std::vector<CrashEvent> crashes;
  SimTime time_cap = seconds(30);
  SimTime settle = millis(150);
  SimTime status_interval = millis(25);
  SimTime max_block = millis(5);
  bool enable_oracle = true;
  bool enable_trace = false;
  /// Durable storage root; node i persists under `<data_dir>/node-<i>`.
  /// Empty = in-memory stable storage only. In-process clusters always
  /// start fresh (recovery across incarnations is the --spawn harness's
  /// job), so this mostly buys the durability write path + telemetry.
  std::string data_dir;
  /// Serve each node's telemetry HTTP endpoint from its IO thread.
  bool telemetry = false;
  /// First telemetry port; node i serves on telemetry_base_port + i.
  /// 0 with telemetry=true means every node binds an ephemeral port
  /// (read back with node(i).telemetry_port()).
  std::uint16_t telemetry_base_port = 0;
  /// Serve the client-facing KV service from every node (read ports back
  /// with node(i).service_port()). Injected client requests bypass the
  /// oracle's send bookkeeping, so serving clusters should set
  /// enable_oracle = false; the client-side oracle in optrec_loadgen is
  /// the external-consistency check instead.
  bool serve = false;
  /// First service port; node i serves on service_base_port + i
  /// (0 = ephemeral per node).
  std::uint16_t service_base_port = 0;
};

/// Cluster totals: per-node local-view snapshots summed (TcpCounters
/// included).
struct TcpClusterResult : TcpCounters {
  /// Worst node exit code (0 clean, 4 time cap).
  int exit_code = 4;
  bool quiesced = false;
  /// Slowest node's runtime, micros.
  SimTime wall_time = 0;
  Metrics metrics;
  Network::Stats net;
  telemetry::FixedHistogram delivery_latency_us;
  std::vector<TcpNodeResult> per_node;
};

class TcpCluster {
 public:
  explicit TcpCluster(TcpClusterConfig config);

  /// Run every node to quiescence (or cap) on its own thread; may be
  /// called once.
  TcpClusterResult run();

  const TcpTopology& topology() const { return topo_; }
  TcpNode& node(std::size_t id) { return *nodes_.at(id); }
  CausalityOracle* oracle() { return oracle_.get(); }
  TraceRecorder* trace() { return trace_.get(); }

 private:
  TcpClusterConfig config_;
  TcpTopology topo_;
  std::unique_ptr<CausalityOracle> oracle_;
  std::unique_ptr<TraceRecorder> trace_;
  std::vector<std::unique_ptr<TcpNode>> nodes_;
};

}  // namespace optrec
