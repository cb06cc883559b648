// In-process TCP cluster integration tests: whole fleets over loopback
// sockets with crash + partition injection, validated by the shared
// causality oracle and the trace auditor. One-node fleets (the threads
// backend) are in tests/live/one_node_fleet_test.cpp; a per-process
// partition here runs one process per node.
#include <gtest/gtest.h>

#include "src/tcp/tcp_cluster.h"
#include "src/trace/trace_auditor.h"
#include "tests/support/oracle_checks.h"

namespace optrec {
namespace {

TcpClusterConfig base_config() {
  TcpClusterConfig config;
  config.n = 8;
  config.nodes = 4;
  config.seed = 11;
  config.workload.intensity = 6;
  config.workload.depth = 48;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(10);
  config.process.checkpoint_interval = millis(50);
  config.time_cap = seconds(60);
  return config;
}

TEST(TcpCluster, FaultFreeRunQuiescesWithBalancedStats) {
  TcpClusterConfig config = base_config();
  config.n = 4;
  config.nodes = 2;
  config.enable_oracle = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(cluster.oracle()->check_consistency().empty());
  // Cluster-summed local-view stats must balance: without injected faults
  // every send is eventually delivered, nothing is dropped or retried by
  // the transport, and nothing is left in flight.
  EXPECT_GT(result.net.messages_sent, 0u);
  EXPECT_EQ(result.net.messages_sent, result.net.messages_delivered);
  EXPECT_EQ(result.net.messages_dropped, 0u);
  EXPECT_EQ(result.tcp.protocol_errors, 0u);
  EXPECT_EQ(result.tcp.backpressure_drops, 0u);
  // k*(k-1)/2 link pairs, each established exactly once.
  EXPECT_EQ(result.tcp.connects, 1u);
  EXPECT_EQ(result.tcp.accepts, 1u);
  EXPECT_EQ(result.metrics.crashes, 0u);
}

/// Four processes, one per node, running the small smoke workload: node
/// partitions are process partitions.
TcpClusterConfig one_process_per_node(std::uint64_t seed) {
  TcpClusterConfig config = base_config();
  config.n = 4;
  config.nodes = 4;
  config.seed = seed;
  config.workload.intensity = 4;
  config.workload.depth = 24;
  config.process.flush_interval = millis(8);
  config.process.checkpoint_interval = millis(30);
  config.enable_oracle = true;
  config.enable_trace = true;
  config.time_cap = seconds(20);
  return config;
}

/// Runs a crash + partition fleet and checks that it quiesces, passes the
/// causality oracle and the trace auditor, leaves zero orphans, and rolls
/// back at most once per process per failure.
void expect_recovers_consistently(const TcpClusterConfig& config) {
  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_EQ(result.metrics.crashes, config.crashes.size());
  EXPECT_EQ(result.metrics.restarts, config.crashes.size());
  EXPECT_LE(result.metrics.max_rollbacks_per_process_per_failure(), 1u);

  const std::vector<std::string> violations =
      cluster.oracle()->check_consistency();
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);
  expect_no_double_delivery(*cluster.oracle());

  const AuditReport report = audit_trace(cluster.trace()->events());
  EXPECT_TRUE(report.ok()) << report.summary();
  // Cross-node failure announcements really went out as kTokens.
  EXPECT_GT(result.net.tokens_delivered, 0u);
  EXPECT_GT(result.tcp.tokens_tx, 0u);
}

TEST(TcpCluster, FourNodeCrashRecoveryWithPartitionStaysConsistent) {
  // The acceptance scenario: a 4-node loopback fleet running DG with two
  // injected crashes and one scripted partition/heal.
  TcpClusterConfig config = base_config();
  config.process.retransmit_on_failure = true;
  config.crashes.push_back({millis(30), 2});
  config.crashes.push_back({millis(60), 5});
  PartitionEvent part;
  part.at = millis(50);
  part.heal_at = millis(250);
  part.groups = {{0, 1}, {2, 3}};  // node ids
  config.faults.partitions.push_back(part);
  config.enable_oracle = true;
  config.enable_trace = true;
  expect_recovers_consistently(config);
}

TEST(TcpCluster, CrashDuringPartitionStillRecovers) {
  // One process per node: a crash on one side while the partition splits
  // the processes {0,1} | {2,3}.
  TcpClusterConfig config = one_process_per_node(108);
  config.crashes = {{millis(30), 2}};
  PartitionEvent split;
  split.at = millis(10);
  split.heal_at = millis(160);
  split.groups = {{0, 1}, {2, 3}};
  config.faults.partitions.push_back(split);
  expect_recovers_consistently(config);
}

TEST(TcpCluster, ScriptedPartitionHoldsCrossGroupTrafficUntilHeal) {
  TcpClusterConfig config = one_process_per_node(107);
  // Cut early, while the causal web is still being seeded, so cross-group
  // traffic is guaranteed to be in flight when the partition lands.
  PartitionEvent split;
  split.at = millis(10);
  split.heal_at = millis(180);
  split.groups = {{0, 1}, {2, 3}};
  config.faults.partitions.push_back(split);
  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();

  // The counter workload's causal web crosses the cut, so the run cannot
  // quiesce before the heal — and must still quiesce cleanly after it.
  EXPECT_TRUE(result.quiesced);
  EXPECT_GE(result.wall_time, split.heal_at);
  EXPECT_EQ(cluster.oracle()->check_consistency(),
            std::vector<std::string>{});
  expect_no_double_delivery(*cluster.oracle());
}

TEST(TcpCluster, FailureFreeCoordinatedRunQuiescesPromptly) {
  // Coordinated checkpointing keeps a marker round in flight every
  // checkpoint interval, long after the application traffic is done. A
  // node's quiet claim waits only on app messages and tokens (as
  // Scenario::run does), so the fleet settles right after the workload
  // instead of waiting for a gap between marker rounds.
  for (const std::size_t nodes : {std::size_t{1}, std::size_t{4}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("nodes=" + std::to_string(nodes) +
                   " seed=" + std::to_string(seed));
      TcpClusterConfig config = base_config();
      config.nodes = nodes;
      config.seed = seed;
      config.protocol = ProtocolKind::kCoordinated;
      config.enable_oracle = false;
      config.time_cap = seconds(3);
      TcpCluster cluster(config);
      const TcpClusterResult result = cluster.run();
      EXPECT_TRUE(result.quiesced);
      EXPECT_EQ(result.exit_code, 0);
      EXPECT_GT(result.metrics.control_messages_sent, 0u);
    }
  }
}

TEST(TcpCluster, DuplicateAndDropInjectionSurvivesTheFilters) {
  TcpClusterConfig config = base_config();
  config.n = 6;
  config.nodes = 3;
  config.process.retransmit_on_failure = true;
  config.faults.duplicate_prob = 0.15;
  config.faults.drop_prob = 0.05;
  config.crashes.push_back({millis(40), 1});
  config.enable_oracle = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(cluster.oracle()->check_consistency().empty());
  // The injection really happened and the protocol's filters absorbed it:
  // no duplicate application of any message (oracle would flag it).
  EXPECT_GT(result.net.messages_duplicated, 0u);
  EXPECT_GT(result.net.messages_dropped, 0u);
}

TEST(TcpCluster, UnevenProcessPlacementWorks) {
  // 5 processes over 3 nodes: {0,1} {2,3} {4} — exercises single-process
  // nodes and the pid->node routing on every send.
  TcpClusterConfig config = base_config();
  config.n = 5;
  config.nodes = 3;
  config.enable_oracle = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(cluster.oracle()->check_consistency().empty());
}

}  // namespace
}  // namespace optrec
