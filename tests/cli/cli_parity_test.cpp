// CLI parity: optrec_sim and optrec_node share one run-flag parser and one
// --metrics-json emitter; optrec_explore rejects flags of the other case
// kind. These tests exec the real binaries (paths injected by CMake)
// exactly as a user would.
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

#if defined(OPTREC_SIM_BIN) && defined(OPTREC_NODE_BIN) && \
    defined(OPTREC_EXPLORE_BIN)

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
  // Remark 2's rule is the only collector: there is no GC level to pick.
  EXPECT_EQ(run(OPTREC_NODE_BIN, "--gc-level=standard"), 2);
  EXPECT_EQ(run(OPTREC_SIM_BIN, "--partition=2,100"), 2);
  // The alias protocol_name() prints is accepted everywhere.
  EXPECT_EQ(run(OPTREC_SIM_BIN, "--protocol=no-recovery"), 0);
}

TEST(ExploreCli, ForeignKindFlagsAndBadTimeBudgetsExitTwo) {
  for (const char* args :
       {// Schedule flags on a durability sweep.
        "--durability --jobs=4 --protocol=cascading --n=9",
        "--durability --protocol=dg", "--durability --workload=bank",
        "--durability --n=4", "--durability --max-crashes=1",
        "--durability --max-partitions=0", "--durability --retransmit",
        "--durability --stability", "--durability --no-dup",
        // Durability flags on a schedule sweep.
        "--ops=5 --garble=0.9 --corrupt-prob=0.9", "--ops=5", "--garble=0.9",
        "--corrupt-prob=0.9",
        // --print-case only goes with --repro.
        "--print-case", "--durability --print-case",
        // --time-budget takes a whole, non-negative number of seconds.
        "--time-budget=abc", "--time-budget=-1", "--time-budget=5s",
        "--time-budget=", "--time-budget=nan", "--time-budget=inf",
        "--durability --time-budget=-1"}) {
    EXPECT_EQ(run(OPTREC_EXPLORE_BIN, std::string("--runs=2 ") + args), 2)
        << args;
  }
  // Shared flags apply to both kinds.
  const TempDir tmp;
  for (const char* mode : {"", "--durability "}) {
    EXPECT_EQ(run(OPTREC_EXPLORE_BIN,
                  std::string(mode) + "--runs=4 --seed=2 --jobs=2 "
                  "--time-budget=30 --max-repros=2 --shrink-budget=10 "
                  "--out=" + tmp.path.string()),
              0)
        << mode;
  }

  // Replay takes the whole case, its kind included, from the artifact:
  // with --repro every flag but --print-case exits 2. The artifact is real,
  // so the exit 2 cannot come from a missing file.
  const fs::path repros = tmp.path / "repros";
  ASSERT_EQ(run(OPTREC_EXPLORE_BIN,
                "--mutate=skip-lemma4 --runs=100 --seed=3 --expect-violation "
                "--max-repros=1 --out=" + repros.string()),
            0);
  ASSERT_TRUE(fs::exists(repros / "repro-0.json"));
  const std::string repro = "--repro=" + (repros / "repro-0.json").string();
  EXPECT_EQ(run(OPTREC_EXPLORE_BIN, repro), 0);
  EXPECT_EQ(run(OPTREC_EXPLORE_BIN, repro + " --print-case"), 0);
  for (const char* args :
       {"--mutate=skip-crc --runs=9 --expect-violation", "--durability",
        "--mutate=skip-lemma4", "--runs=9", "--expect-violation", "--seed=3",
        "--jobs=2", "--time-budget=5", "--no-shrink", "--shrink-budget=3",
        "--max-repros=1", "--out=.", "--bench-out=bench.json", "--quiet",
        "--protocol=dg", "--workload=bank", "--n=4", "--max-crashes=1",
        "--max-partitions=0", "--retransmit", "--stability", "--no-dup",
        "--ops=5", "--garble=0.9", "--corrupt-prob=0.9"}) {
    EXPECT_EQ(run(OPTREC_EXPLORE_BIN, repro + " " + args), 2) << args;
  }
}

#endif  // OPTREC_SIM_BIN && OPTREC_NODE_BIN && OPTREC_EXPLORE_BIN

}  // namespace
}  // namespace optrec
