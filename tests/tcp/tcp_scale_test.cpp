// Fleet-scale TCP integration tests (docs/SCALING.md): the delta clock
// piggyback over real connections and failure tokens sent straight to
// every node, validated by the same shared causality oracle every cluster
// test uses. The codec-level properties live in tests/scale/; these tests
// prove the TRANSPORT integration — the part where encode order,
// connection lifecycle and token acks could diverge from the models.
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

TEST(TcpScale, DeltaPiggybackFaultFreeDecodesEverythingAndSavesBytes) {
  // Byte savings need clocks wide enough that only a few of the n entries
  // change between consecutive frames of a stream — at n=8 the fixed
  // per-frame overhead (seq, base_seq, checksum) eats the gain and most
  // frames go flat. 32 processes is the smallest configuration where the
  // win is unambiguous on every seed.
  TcpClusterConfig config = base_config();
  config.n = 32;
  config.enable_oracle = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(cluster.oracle()->check_consistency().empty());
  EXPECT_EQ(result.net.messages_sent, result.net.messages_delivered);
  EXPECT_EQ(result.tcp.protocol_errors, 0u);
  // Every cross-node message went through the codec, and the stateful
  // frames cost less on the wire than their flat equivalents.
  EXPECT_GT(result.tcp.delta_frames_tx, 0u);
  EXPECT_LT(result.tcp.delta_bytes_tx, result.tcp.delta_flat_bytes);
  // A fault-free run never needs a resync.
  EXPECT_EQ(result.tcp.delta_resyncs, 0u);
}

TEST(TcpScale, DeltaPiggybackSurvivesCrashesDropsAndDuplicates) {
  // The hard case for a stateful codec: worker crashes roll clocks back,
  // injected duplicates re-queue the same DeltaSend twice, and drops
  // remove frames BEFORE encoding (sender-side), so the connection stream
  // itself stays gap-free — decode must stay exact throughout.
  TcpClusterConfig config = base_config();
  config.process.retransmit_on_failure = true;
  config.faults.duplicate_prob = 0.15;
  config.faults.drop_prob = 0.05;
  config.crashes.push_back({millis(30), 2});
  config.crashes.push_back({millis(60), 5});
  config.enable_oracle = true;
  config.enable_trace = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_EQ(result.metrics.crashes, 2u);
  EXPECT_LE(result.metrics.max_rollbacks_per_process_per_failure(), 1u);
  const std::vector<std::string> violations =
      cluster.oracle()->check_consistency();
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);
  const AuditReport report = audit_trace(cluster.trace()->events());
  EXPECT_TRUE(report.ok()) << report.summary();
  // At this small n the codec saves little (see the fault-free test); what
  // matters here is that every frame still decoded exactly — the oracle
  // above — and the accounting is live.
  EXPECT_GT(result.tcp.delta_frames_tx, 0u);
  EXPECT_GT(result.tcp.delta_flat_bytes, 0u);
}

TEST(TcpScale, HierarchicalTokenDisseminationReachesEveryone) {
  // Every broadcast sends one kToken to each of the 3 remote nodes, and
  // no node forwards a token it did not announce; every process still gets
  // the token (quiescence + oracle prove delivery).
  TcpClusterConfig config = base_config();
  config.process.retransmit_on_failure = true;
  config.crashes.push_back({millis(30), 2});
  config.crashes.push_back({millis(60), 5});
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
  // kTokens actually carried the broadcasts; every remote process received
  // its copy (logical sends all delivered, nothing stuck unacked).
  EXPECT_GT(result.tcp.tokens_tx, 0u);
  EXPECT_GT(result.net.tokens_delivered, 0u);
  EXPECT_EQ(result.net.tokens_sent, result.net.tokens_delivered);
  for (std::size_t node = 0; node < result.per_node.size(); ++node) {
    const TcpNodeResult& r = result.per_node[node];
    EXPECT_EQ(r.tcp.tokens_tx, (config.nodes - 1) * r.net.token_broadcasts)
        << "node " << node;
  }
}

TEST(TcpScale, HierarchicalDisseminationSurvivesPartition) {
  // A partition cuts the fleet mid-broadcast: nodes in the far group are
  // unreachable until heal. Retry-until-acked must still cover every node
  // — the run cannot quiesce before every node acked.
  TcpClusterConfig config = base_config();
  config.process.retransmit_on_failure = true;
  config.crashes.push_back({millis(30), 2});
  PartitionEvent part;
  part.at = millis(50);
  part.heal_at = millis(250);
  part.groups = {{0, 1}, {2, 3}};  // node ids
  config.faults.partitions.push_back(part);
  config.enable_oracle = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(cluster.oracle()->check_consistency().empty());
  EXPECT_GT(result.tcp.tokens_tx, 0u);
  EXPECT_EQ(result.net.tokens_sent, result.net.tokens_delivered);
}

TEST(TcpScale, DeltaAndHierarchicalComposeUnderFaults) {
  // Both wire paths under every fault class at once: duplicates, drops
  // and crashes.
  TcpClusterConfig config = base_config();
  config.process.retransmit_on_failure = true;
  config.faults.duplicate_prob = 0.1;
  config.faults.drop_prob = 0.03;
  config.crashes.push_back({millis(30), 2});
  config.crashes.push_back({millis(60), 5});
  config.enable_oracle = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(cluster.oracle()->check_consistency().empty());
  EXPECT_LE(result.metrics.max_rollbacks_per_process_per_failure(), 1u);
  EXPECT_GT(result.tcp.delta_frames_tx, 0u);
  EXPECT_GT(result.tcp.tokens_tx, 0u);
}

TEST(TcpScale, TunedGcReclaimsStorageOnTheTcpPath) {
  // Remark-2 GC wired through TcpClusterConfig.process: the run must stay
  // oracle-clean while actually reclaiming log intervals.
  TcpClusterConfig config = base_config();
  config.workload.depth = 96;
  config.process.enable_stability_tracking = true;
  config.process.enable_gc = true;
  // Settling needs a 150 ms window with no frame in flight on any node;
  // eight processes gossiping every 20 ms make such windows rare enough
  // under CPU contention that the run could hit its time cap. 100 ms
  // still gives GC thousands of log entries to reclaim.
  config.process.stability_gossip_interval = millis(100);
  config.crashes.push_back({millis(40), 3});
  config.enable_oracle = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(cluster.oracle()->check_consistency().empty());
  EXPECT_GT(result.metrics.gc_log_entries_reclaimed, 0u);
}

}  // namespace
}  // namespace optrec
