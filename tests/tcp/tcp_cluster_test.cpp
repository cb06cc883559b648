// In-process TCP cluster integration tests: whole fleets over loopback
// sockets with crash + partition injection, validated by the shared
// causality oracle and the trace auditor — the TCP analogue of
// tests/live/live_runtime_test.cpp.
#include <gtest/gtest.h>

#include "src/tcp/tcp_cluster.h"
#include "src/trace/trace_auditor.h"

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

TEST(TcpCluster, FourNodeCrashRecoveryWithPartitionStaysConsistent) {
  // The PR's acceptance scenario: a 4-node loopback fleet running DG with
  // two injected crashes and one scripted partition/heal must quiesce,
  // pass the causality oracle and the trace auditor, leave zero orphans,
  // and roll back at most once per process per failure.
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

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_EQ(result.metrics.crashes, 2u);
  EXPECT_EQ(result.metrics.restarts, 2u);
  EXPECT_LE(result.metrics.max_rollbacks_per_process_per_failure(), 1u);

  const std::vector<std::string> violations =
      cluster.oracle()->check_consistency();
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);

  const AuditReport report = audit_trace(cluster.trace()->events());
  EXPECT_TRUE(report.ok()) << report.summary();
  // Cross-node failure announcements really went out as kTokens.
  EXPECT_GT(result.net.tokens_delivered, 0u);
  EXPECT_GT(result.tcp.tokens_tx, 0u);
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
