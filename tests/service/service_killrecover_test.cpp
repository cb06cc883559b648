// The acceptance scenario as a test: a real multi-process serving fleet
// (optrec_node --spawn --serve), SIGKILL of a node mid-request-stream, warm
// respawn from durable state — driven by the real optrec_loadgen binary,
// whose client-side oracle must stay clean: no reply from a rolled-back
// interval (monotonic kver), every retried request applied exactly once,
// and the bank total conserved after recovery.
//
// Binary paths are injected via OPTREC_NODE_BIN / OPTREC_LOADGEN_BIN
// compile definitions (tests/CMakeLists.txt), mirroring the durable
// recovery test.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "src/util/json.h"
#include "tests/temp_dir.h"

namespace optrec {
namespace {

#if defined(OPTREC_NODE_BIN) && defined(OPTREC_LOADGEN_BIN)
TEST(ServiceKillRecover, OracleStaysCleanAcrossSigkillWarmRespawn) {
  TempDir tmp;
  const std::string data_dir = (tmp.path / "data").string();
  const std::string topo = (tmp.path / "topo.json").string();
  const std::string bench = (tmp.path / "BENCH_service.json").string();
  const std::string metrics = (tmp.path / "metrics.json").string();
  const std::string node_log = (tmp.path / "node.log").string();
  const std::string lg_log = (tmp.path / "loadgen.log").string();

  // One shell pipeline: background the serving fleet, wait for its
  // topology file, run the load driver against it (retrying through the
  // kill window), then wait for the fleet's own exit code. The fleet
  // serves until its time cap (serving clusters never quiesce); the cap
  // is generous because sanitizer builds recover ~10x slower.
  std::ostringstream cmd;
  cmd << "sh -c '"
      << OPTREC_NODE_BIN
      << " --spawn --processes=8 --tcp-nodes=4 --seed=5 --workload=service"
      << " --serve --retransmit --flush-ms=10 --ckpt-ms=50"
      << " --kill=1:1000:4000 --time-cap-ms=30000"
      << " --data-dir=" << data_dir << " --write-topology=" << topo
      << " --metrics-json=" << metrics << " > " << node_log << " 2>&1 &"
      << " NODE_PID=$!;"
      << " i=0; while [ ! -s " << topo << " ] && [ $i -lt 100 ];"
      << " do sleep 0.1; i=$((i+1)); done;"
      << OPTREC_LOADGEN_BIN << " --topology=" << topo
      << " --clients=4 --duration-ms=3000 --kill-at-ms=1000"
      << " --timeout-ms=500 --grace-ms=20000 --audit-timeout-ms=20000"
      << " --seed=5 --json=" << bench << " > " << lg_log << " 2>&1;"
      << " LG=$?;"
      << " wait $NODE_PID; NODE=$?;"
      << " echo loadgen=$LG node=$NODE;"
      << " [ $LG -eq 0 ] && [ $NODE -eq 0 ]'";
  const int status = std::system(cmd.str().c_str());
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) != 0) {
    // Each file goes through its own string: streaming an empty rdbuf()
    // sets failbit on the destination and would swallow every later file.
    std::string text;
    for (const std::string& f : {node_log, lg_log}) {
      std::ifstream in(f);
      const std::string body{std::istreambuf_iterator<char>(in), {}};
      text += "---- " + f + ":\n" + body + "\n";
    }
    FAIL() << "fleet or loadgen failed\n" << text;
  }

  // The loadgen's exit code already encodes "oracle clean" (3 = violation);
  // re-assert the specifics from its JSON report.
  std::ifstream in(bench);
  ASSERT_TRUE(in.good()) << "loadgen wrote no BENCH_service.json";
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue root = JsonValue::parse(text.str());

  const JsonValue* oracle = root.find("oracle");
  ASSERT_NE(oracle, nullptr);
  EXPECT_EQ(oracle->u64_or("violations", 99), 0u)
      << "client observed orphaned/non-monotonic/duplicate state";

  const JsonValue* audit = root.find("audit");
  ASSERT_NE(audit, nullptr);
  EXPECT_TRUE(audit->find("conserved") != nullptr &&
              audit->find("conserved")->as_bool())
      << "bank total not conserved after warm recovery: "
      << audit->u64_or("observed", 0) << " != "
      << audit->u64_or("expected", 0);

  const JsonValue* requests = root.find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GT(requests->u64_or("succeeded", 0), 0u);
  EXPECT_EQ(requests->u64_or("abandoned", 1), 0u)
      << "a client never got its reply back after the recovery window";

  const JsonValue* latency = root.find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->u64_or("request_count", 0), 0u);

  // The killed node came back warm from its durable store, not as a
  // version-0 cold loss.
  std::ifstream min(metrics + ".node1");
  ASSERT_TRUE(min.good()) << "respawned node wrote no metrics JSON";
  std::ostringstream mtext;
  mtext << min.rdbuf();
  const JsonValue mroot = JsonValue::parse(mtext.str());
  const JsonValue* durable = mroot.find("durable");
  ASSERT_NE(durable, nullptr);
  EXPECT_GE(durable->u64_or("warm_recovered", 0), 1u)
      << "respawn fell back to a cold crash-announce";
  const JsonValue* service = mroot.find("service");
  ASSERT_NE(service, nullptr);
  EXPECT_GT(service->u64_or("requests", 0), 0u)
      << "respawned node served no client requests";
}
#endif  // OPTREC_NODE_BIN && OPTREC_LOADGEN_BIN

}  // namespace
}  // namespace optrec
