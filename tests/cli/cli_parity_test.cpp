// CLI parity: optrec_sim and optrec_node share one run-flag parser and one
// --metrics-json emitter. These tests exec the real
// binaries (paths injected by CMake) exactly as a user would.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/json.h"
#include "tests/temp_dir.h"

namespace optrec {
namespace {

#if defined(OPTREC_SIM_BIN) && defined(OPTREC_NODE_BIN)

namespace fs = std::filesystem;

const char* const kRunners[] = {OPTREC_SIM_BIN, OPTREC_NODE_BIN};

/// Run `bin args` with its output discarded; returns the exit code.
int run(const std::string& bin, const std::string& args) {
  const std::string cmd = bin + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::set<std::string> keys(const JsonValue& object) {
  std::set<std::string> out;
  for (const auto& [key, value] : object.as_object()) out.insert(key);
  return out;
}

TEST(CliParity, SharedFlagsRunCleanWithOneJsonShape) {
  const TempDir tmp;
  std::vector<JsonValue> docs;
  for (const char* bin : kRunners) {
    const std::string file =
        (tmp.path / (fs::path(bin).filename().string() + ".json")).string();
    ASSERT_EQ(run(bin,
                  "--protocol=dg --n=4 --seed=7 --crashes=1 --retransmit "
                  "--oracle --audit --metrics-json=" +
                      file),
              0)
        << bin;
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    docs.push_back(JsonValue::parse(text.str()));
  }

  for (const char* block :
       {"metrics", "network", "oracle", "recovery_timeline"}) {
    const JsonValue* sim = docs[0].find(block);
    ASSERT_NE(sim, nullptr) << block;
    for (std::size_t i = 1; i < docs.size(); ++i) {
      const JsonValue* other = docs[i].find(block);
      ASSERT_NE(other, nullptr) << kRunners[i] << ": no " << block;
      EXPECT_EQ(keys(*sim), keys(*other)) << kRunners[i] << ": " << block;
    }
  }
  for (std::size_t i = 0; i < docs.size(); ++i) {
    const JsonValue& doc = docs[i];
    for (const char* key : {"exit_code", "quiesced", "audit_violations",
                            "trace_events"}) {
      EXPECT_NE(doc.find(key), nullptr) << kRunners[i] << ": no " << key;
    }
    const JsonValue* config = doc.find("config");
    ASSERT_NE(config, nullptr) << kRunners[i];
    for (const char* key : {"backend", "protocol", "workload", "n", "seed",
                            "crashes_planned"}) {
      EXPECT_NE(config->find(key), nullptr) << kRunners[i] << ": no " << key;
    }
    EXPECT_EQ(config->u64_or("n", 0), 4u) << kRunners[i];
    EXPECT_EQ(config->u64_or("crashes_planned", 0), 1u) << kRunners[i];
    EXPECT_TRUE(doc.find("oracle")->find("violations")->as_array().empty())
        << kRunners[i];
    EXPECT_EQ(doc.u64_or("audit_violations", 1), 0u) << kRunners[i];
  }
}

TEST(CliParity, MalformedFlagsExitTwoOnEveryRunner) {
  for (const char* bin : kRunners) {
    for (const char* args : {"--protocol=quantum", "--oracle=false",
                             "--drop=abc", "--drop=1.5", "--n=1", "--bogus"}) {
      EXPECT_EQ(run(bin, args), 2) << bin << " " << args;
    }
  }
  EXPECT_EQ(run(OPTREC_NODE_BIN, "--node=0 --base-port=70000"), 2);
  EXPECT_EQ(run(OPTREC_NODE_BIN, "--telemetry-port=65536"), 2);
  EXPECT_EQ(run(OPTREC_SIM_BIN, "--partition=2,100"), 2);
  // The alias protocol_name() prints is accepted everywhere.
  EXPECT_EQ(run(OPTREC_SIM_BIN, "--protocol=no-recovery"), 0);
}

#endif  // OPTREC_SIM_BIN && OPTREC_NODE_BIN

}  // namespace
}  // namespace optrec
