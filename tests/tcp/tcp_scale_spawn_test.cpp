// Respawn regression for the fleet-scale transport paths: a real
// multi-process fleet (optrec_node --spawn), whose connections always run
// the delta clock piggyback and carry failure tokens straight to every
// node, where one node is SIGKILLed mid-run and respawned warm from disk.
//
// This is the transport-level half of the reused-send-seq hazard the codec
// test (DeltaCodecTest.RebirthWithReusedSeqsDecodesByteExact) covers in
// isolation: the respawned node comes back with a NEW incarnation epoch,
// its connections are re-established, and every per-connection codec must
// be created fresh — a stale encoder surviving the respawn would emit
// deltas against bases the peers no longer hold, which would surface here
// as resync storms, protocol errors, or a fleet that cannot quiesce.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/util/json.h"
#include "tests/temp_dir.h"

namespace optrec {
namespace {

#ifdef OPTREC_NODE_BIN
TEST(TcpScaleSpawn, KillNineRespawnKeepsDeltaAndRelayFleetClean) {
  TempDir tmp;
  const std::string data_dir = (tmp.path / "data").string();
  const std::string metrics = (tmp.path / "metrics.json").string();
  const std::string log = (tmp.path / "harness.log").string();

  std::ostringstream cmd;
  cmd << OPTREC_NODE_BIN << " --spawn --processes=8 --tcp-nodes=4"
      << " --seed=7 --intensity=10 --depth=600 --retransmit"
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

  // Fold every node's metrics JSON: the fleet quiesced (exit 0 above), the
  // respawn was warm, delta frames and kTokens actually flowed, every node
  // sent one kToken per remote node per broadcast, and no stream ever
  // desynchronised into a protocol error.
  std::uint64_t delta_frames = 0, tokens = 0, protocol_errors = 0;
  std::uint64_t warm = 0;
  for (int node = 0; node < 4; ++node) {
    std::ifstream in(metrics + ".node" + std::to_string(node));
    ASSERT_TRUE(in.good()) << "node " << node << " wrote no metrics JSON";
    std::ostringstream text;
    text << in.rdbuf();
    const JsonValue root = JsonValue::parse(text.str());
    const JsonValue* tcp = root.find("tcp");
    ASSERT_NE(tcp, nullptr) << text.str();
    delta_frames += tcp->u64_or("delta_frames_tx", 0);
    tokens += tcp->u64_or("tokens_tx", 0);
    const JsonValue* net = root.find("network");
    ASSERT_NE(net, nullptr) << text.str();
    EXPECT_EQ(tcp->u64_or("tokens_tx", 0),
              3 * net->u64_or("token_broadcasts", 0))
        << "node " << node;
    protocol_errors += tcp->u64_or("protocol_errors", 0);
    if (const JsonValue* durable = root.find("durable")) {
      warm += durable->u64_or("warm_recovered", 0);
    }
  }
  EXPECT_GT(delta_frames, 0u);
  EXPECT_GT(tokens, 0u);  // the kill forced a failure announcement
  EXPECT_EQ(protocol_errors, 0u);
  EXPECT_GE(warm, 1u) << "respawn fell back to a cold crash-announce";
}
#endif  // OPTREC_NODE_BIN

}  // namespace
}  // namespace optrec
