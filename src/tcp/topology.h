// Cluster topology for the TCP backend: which node hosts which protocol
// processes, where each node listens, and the fault plan every node applies
// identically (drops, delays, duplicates, scripted node-level partitions).
//
// Topologies are plain JSON so a cluster can be described in a file and
// shipped to every machine (docs/TCP_TRANSPORT.md documents the format),
// or generated in-process for loopback tests and benches. Example:
//
//   {
//     "cluster": "demo",
//     "processes": 4,
//     "nodes": [
//       {"id": 0, "host": "127.0.0.1", "port": 7800, "processes": [0, 1]},
//       {"id": 1, "host": "127.0.0.1", "port": 7801, "processes": [2, 3]}
//     ],
//     "faults": {
//       "min_delay_us": 50, "max_delay_us": 2000,
//       "drop": 0.0, "dup": 0.0,
//       "partitions": [{"at_ms": 100, "heal_ms": 300,
//                       "groups": [[0], [1]]}]
//     }
//   }
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/failure_plan.h"
#include "src/sim/time.h"
#include "src/util/ids.h"
#include "src/util/json.h"

namespace optrec {

struct TcpNodeSpec {
  std::uint32_t id = 0;
  std::string host = "127.0.0.1";
  /// Listen port; 0 = ephemeral (in-process clusters bind first and
  /// exchange the kernel-picked ports before starting traffic).
  std::uint16_t port = 0;
  /// Telemetry HTTP port (/metrics, /metrics.json, /cluster, /healthz);
  /// 0 = no fixed assignment (the node binds an ephemeral port when
  /// telemetry is enabled, or none at all).
  std::uint16_t telemetry_port = 0;
  /// Client-facing service port (optrec_node --serve); 0 = no fixed
  /// assignment (ephemeral when serving, or no listener at all).
  std::uint16_t service_port = 0;
  /// Protocol processes hosted on this node.
  std::vector<ProcessId> processes;
};

/// Fault plan of the TCP transport. Delay/drop/dup mirror LiveFaultConfig;
/// the rest is socket-specific (reconnect backoff, token ack retry,
/// outbound backpressure). Partition groups name NODES, not processes —
/// co-located processes can never be split, which is what a real network
/// partition looks like.
struct TcpFaultConfig {
  SimTime min_delay = micros(50);
  SimTime max_delay = millis(2);
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  /// Worker-side backoff while the receiving process is down (the park-and-
  /// retry loop of the reliable transport model).
  SimTime retry_interval = millis(2);
  /// Re-send period for kTokens that have not been acked yet.
  SimTime token_retry = millis(25);
  /// Reconnect backoff bounds (exponential, doubling from min to max).
  SimTime reconnect_min = millis(10);
  SimTime reconnect_max = seconds(2);
  /// Per-peer cap on queued outbound APP frames; overflow is dropped and
  /// counted (tokens and control traffic are never dropped by backpressure).
  std::size_t outbound_cap_frames = 8192;
  /// Scripted partitions over node ids; times are node-runtime micros.
  std::vector<PartitionEvent> partitions;
};

struct TcpTopology {
  std::string cluster = "optrec";
  /// Total protocol processes across all nodes.
  std::size_t n = 0;
  std::vector<TcpNodeSpec> nodes;
  TcpFaultConfig faults;

  /// Check shape: node ids are 0..k-1 in order, every pid 0..n-1 appears on
  /// exactly one node, every node hosts at least one process. Throws
  /// std::invalid_argument.
  void validate() const;

  std::uint32_t node_of(ProcessId pid) const;
  const TcpNodeSpec& node(std::uint32_t id) const { return nodes.at(id); }

  /// `n` processes spread round-robin-contiguously over `k` loopback nodes;
  /// node i listens on base_port + i (0 = all ephemeral), serves telemetry
  /// on telemetry_base_port + i and the client service on
  /// service_base_port + i (0 = no fixed assignment).
  static TcpTopology loopback(std::size_t n, std::size_t k,
                              std::uint16_t base_port = 0,
                              std::string cluster = "loopback",
                              std::uint16_t telemetry_base_port = 0,
                              std::uint16_t service_base_port = 0);

  static TcpTopology from_json(const JsonValue& v);
  /// Parse a JSON document; throws std::runtime_error (parse) or
  /// std::invalid_argument (shape).
  static TcpTopology parse(std::string_view text);
  /// parse() the file at `path`; an unreadable file throws
  /// std::runtime_error too.
  static TcpTopology load(const std::string& path);
  std::string to_json() const;
};

}  // namespace optrec
