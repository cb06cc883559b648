// True kill-9 recovery, end to end: an in-process TcpCluster exercising the
// durable write path, and the real acceptance scenario — optrec_node's
// multi-process --spawn harness SIGKILLing a node and respawning it with
// --recover, which must come back warm from its on-disk WAL + checkpoints.
//
// The exec-based test runs the optrec_node binary (path injected via the
// OPTREC_NODE_BIN compile definition) exactly as a user would.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/tcp/tcp_cluster.h"
#include "src/util/json.h"
#include "tests/temp_dir.h"

namespace optrec {
namespace {

namespace fs = std::filesystem;

TEST(TcpDurableRecovery, InProcessClusterPersistsDurableState) {
  TempDir tmp;
  TcpClusterConfig config;
  config.n = 4;
  config.nodes = 2;
  config.seed = 13;
  config.workload.intensity = 6;
  config.workload.depth = 48;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(10);
  config.process.checkpoint_interval = millis(50);
  config.time_cap = seconds(60);
  config.data_dir = (tmp.path / "data").string();

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);

  std::uint64_t fsyncs = 0, snapshots = 0, disk_bytes = 0;
  for (const TcpNodeResult& nr : result.per_node) {
    EXPECT_TRUE(nr.durable.enabled);
    fsyncs += nr.durable.fsync_total;
    snapshots += nr.durable.snapshot_writes;
    disk_bytes += nr.durable.disk_stable_bytes;
  }
  EXPECT_GT(fsyncs, 0u);
  EXPECT_GT(snapshots, 0u);
  EXPECT_GT(disk_bytes, 0u);

  // Every pid left a recoverable store behind: manifest + WAL on disk.
  for (std::size_t node = 0; node < config.nodes; ++node) {
    const fs::path node_dir =
        fs::path(config.data_dir) / ("node-" + std::to_string(node));
    ASSERT_TRUE(fs::exists(node_dir)) << node_dir;
    bool saw_pid_store = false;
    for (const auto& entry : fs::directory_iterator(node_dir)) {
      if (!entry.is_directory()) continue;
      saw_pid_store = true;
      EXPECT_TRUE(fs::exists(entry.path() / "MANIFEST.bin"))
          << entry.path() << " has no manifest";
    }
    EXPECT_TRUE(saw_pid_store) << node_dir << " holds no per-pid stores";
  }
}

#ifdef OPTREC_NODE_BIN
TEST(TcpDurableRecovery, SpawnHarnessKillNineRespawnsWarmFromDisk) {
  TempDir tmp;
  const std::string data_dir = (tmp.path / "data").string();
  const std::string metrics = (tmp.path / "metrics.json").string();
  const std::string log = (tmp.path / "harness.log").string();

  std::ostringstream cmd;
  cmd << OPTREC_NODE_BIN << " --spawn --processes=8 --tcp-nodes=4"
      << " --seed=3 --intensity=10 --depth=600 --retransmit"
      << " --flush-ms=10 --ckpt-ms=50 --kill=1:400:900"
      // Generous cap: sanitizer builds run this fleet ~10x slower.
      << " --time-cap-ms=120000"
      << " --data-dir=" << data_dir << " --metrics-json=" << metrics
      << " >" << log << " 2>&1";
  const int status = std::system(cmd.str().c_str());
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) != 0) {
    std::ifstream in(log);
    std::ostringstream text;
    text << in.rdbuf();
    FAIL() << "harness exited " << WEXITSTATUS(status) << "\n" << text.str();
  }

  // The respawned node 1 wrote its metrics on clean exit; its durable
  // block must show a warm, non-trivial recovery from disk.
  std::ifstream in(metrics + ".node1");
  ASSERT_TRUE(in.good()) << "respawned node wrote no metrics JSON";
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue root = JsonValue::parse(text.str());
  const JsonValue* durable = root.find("durable");
  ASSERT_NE(durable, nullptr) << text.str();
  EXPECT_GE(durable->u64_or("warm_recovered", 0), 1u)
      << "respawn fell back to a cold crash-announce";
  // Strictly past the initial checkpoint's cursor: recovery used the
  // latest on-disk state, not the version-0 fallback.
  EXPECT_GT(durable->u64_or("recovered_delivered", 0), 0u);
  EXPECT_GT(durable->u64_or("replayed_msgs", 0), 0u);
  EXPECT_GT(durable->u64_or("recovered_checkpoints", 0), 0u);
}
#endif  // OPTREC_NODE_BIN

}  // namespace
}  // namespace optrec
