// One-node fleet tests: the threads backend, end to end.
//
// A TcpCluster with one node hosts every process on worker threads and
// opens no peer socket, so every frame goes straight into a local channel.
// The seeded smoke tests run a 4-process fleet of each protocol with one
// injected crash and validate the run the same way the simulator tests do:
// the causality oracle's consistency check, the trace auditor's invariant
// replay, and an explicit no-double-delivery check over message fates.
// Latency/throughput numbers are not asserted (they are machine-dependent);
// correctness properties are.
#include <gtest/gtest.h>

#include "src/tcp/tcp_cluster.h"
#include "src/trace/trace_auditor.h"
#include "tests/support/oracle_checks.h"

namespace optrec {
namespace {

TcpClusterConfig smoke_config(ProtocolKind protocol, std::uint64_t seed) {
  TcpClusterConfig config;
  config.n = 4;
  config.nodes = 1;
  config.seed = seed;
  config.protocol = protocol;
  config.workload.intensity = 4;
  config.workload.depth = 24;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(8);
  config.process.checkpoint_interval = millis(30);
  config.enable_oracle = true;
  config.enable_trace = true;
  config.time_cap = seconds(20);
  // One crash while traffic is in full swing.
  config.crashes.push_back({millis(30), 1});
  return config;
}

void run_smoke(ProtocolKind protocol, std::uint64_t seed) {
  TcpCluster cluster(smoke_config(protocol, seed));
  const TcpClusterResult result = cluster.run();

  EXPECT_TRUE(result.quiesced);
  EXPECT_EQ(result.metrics.crashes, 1u);
  EXPECT_EQ(result.metrics.restarts, 1u);
  EXPECT_GT(result.metrics.messages_delivered, 0u);
  EXPECT_GT(result.delivery_latency_us.count(), 0u);
  EXPECT_GT(result.metrics.piggyback_bytes, 0u);

  ASSERT_NE(cluster.oracle(), nullptr);
  EXPECT_EQ(cluster.oracle()->check_consistency(), std::vector<std::string>{});
  expect_no_double_delivery(*cluster.oracle());

  ASSERT_NE(cluster.trace(), nullptr);
  const AuditReport report = audit_trace(cluster.trace()->events());
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(OneNodeFleetSmokeTest, DamaniGargSurvivesCrash) {
  run_smoke(ProtocolKind::kDamaniGarg, 101);
}

TEST(OneNodeFleetSmokeTest, PessimisticSurvivesCrash) {
  run_smoke(ProtocolKind::kPessimistic, 102);
}

TEST(OneNodeFleetSmokeTest, CoordinatedSurvivesCrash) {
  run_smoke(ProtocolKind::kCoordinated, 103);
}

TEST(OneNodeFleetTest, FailureFreeRunHasNoRecoveryTraffic) {
  TcpClusterConfig config = smoke_config(ProtocolKind::kDamaniGarg, 104);
  config.crashes.clear();
  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();

  EXPECT_TRUE(result.quiesced);
  EXPECT_EQ(result.metrics.crashes, 0u);
  EXPECT_EQ(result.metrics.rollbacks, 0u);
  EXPECT_EQ(result.net.tokens_sent, 0u);
  // Damani-Garg sends no control messages in failure-free runs (Sec. 6.9).
  EXPECT_EQ(result.metrics.control_messages_sent, 0u);
  EXPECT_EQ(cluster.oracle()->check_consistency(),
            std::vector<std::string>{});
  // One node opens no peer socket: every frame stayed in-process.
  EXPECT_EQ(result.tcp.connects + result.tcp.accepts, 0u);
  EXPECT_EQ(result.tcp.frames_tx, 0u);
}

TEST(OneNodeFleetTest, InjectedDuplicatesAreFiltered) {
  TcpClusterConfig config = smoke_config(ProtocolKind::kDamaniGarg, 105);
  config.faults.duplicate_prob = 0.2;
  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();

  EXPECT_TRUE(result.quiesced);
  EXPECT_GT(result.net.messages_duplicated, 0u);
  EXPECT_GT(result.metrics.messages_discarded_duplicate, 0u);
  EXPECT_EQ(cluster.oracle()->check_consistency(),
            std::vector<std::string>{});
  expect_no_double_delivery(*cluster.oracle());
}

TEST(OneNodeFleetTest, ReportsTimeCapAsNonQuiescent) {
  TcpClusterConfig config = smoke_config(ProtocolKind::kDamaniGarg, 106);
  config.crashes.clear();
  config.time_cap = millis(1);  // expires before the workload can finish
  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_FALSE(result.quiesced);
  EXPECT_EQ(result.exit_code, 4);
}

}  // namespace
}  // namespace optrec
