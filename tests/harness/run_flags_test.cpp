// Unit tests for the shared run-flag parser (src/harness/run_flags.h): the
// validation optrec_sim and optrec_node both inherit.
#include "src/harness/run_flags.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

namespace optrec {
namespace {

/// Parse `args` on top of `*flags` (fresh defaults when null); returns the
/// usage error, if any.
std::optional<std::string> parse(std::initializer_list<const char*> args,
                                 RunFlags* flags = nullptr,
                                 const BackendFlagHandler& backend = nullptr) {
  std::vector<char*> argv{const_cast<char*>("runner")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  RunFlags local;
  return parse_run_flags(static_cast<int>(argv.size()), argv.data(),
                         flags != nullptr ? *flags : local, backend);
}

bool rejects(std::initializer_list<const char*> args) {
  return parse(args).has_value();
}

TEST(RunFlags, ProtocolAliasesComeFromTheOneNameTable) {
  RunFlags f;
  EXPECT_FALSE(parse({"--protocol=no-recovery"}, &f));
  EXPECT_EQ(f.protocol, ProtocolKind::kPlain);
  EXPECT_FALSE(parse({"--protocol=pk"}, &f));
  EXPECT_EQ(f.protocol, ProtocolKind::kPetersonKearns);
  EXPECT_TRUE(rejects({"--protocol=quantum"}));
}

TEST(RunFlags, SwitchesRejectAnyValue) {
  for (const char* arg : {"--oracle=false", "--audit=1", "--retransmit=no",
                          "--verbose=0", "--gc=off", "--stability="}) {
    RunFlags f;
    EXPECT_TRUE(parse({arg}, &f)) << arg;
    EXPECT_FALSE(f.oracle) << arg;
  }
  RunFlags f;
  EXPECT_FALSE(parse({"--oracle"}, &f));
  EXPECT_TRUE(f.oracle);
}

TEST(RunFlags, ProbabilitiesMustBeNumbersInTheUnitInterval) {
  for (const char* arg : {"--drop=abc", "--drop=1.5", "--drop=-0.1", "--drop=",
                          "--drop=0.5x", "--dup=nan", "--dup=2"}) {
    EXPECT_TRUE(rejects({arg})) << arg;
  }
  RunFlags f;
  EXPECT_FALSE(parse({"--drop=0.25", "--dup=1"}, &f));
  EXPECT_DOUBLE_EQ(f.drop_prob, 0.25);
  EXPECT_DOUBLE_EQ(f.duplicate_prob, 1.0);
}

TEST(RunFlags, FewerThanTwoProcessesIsAUsageError) {
  EXPECT_TRUE(rejects({"--n=1"}));
  EXPECT_TRUE(rejects({"--processes=0"}));
  EXPECT_TRUE(rejects({"--n=-3"}));
  EXPECT_TRUE(rejects({"--n=99999999999999999999999"}));
  EXPECT_FALSE(rejects({"--processes=2"}));
}

TEST(RunFlags, PortsAreRangeChecked) {
  EXPECT_EQ(parse_port("0", "--base-port"), 0);
  EXPECT_EQ(parse_port("65535", "--base-port"), 65535);
  EXPECT_THROW(parse_port("70000", "--base-port"), UsageError);
  EXPECT_THROW(parse_port("-1", "--base-port"), UsageError);
}

TEST(RunFlags, PartitionTakesTheSpecForm) {
  RunFlags f;
  EXPECT_FALSE(parse({"--partition=50:250:0,1/2,3"}, &f));
  ASSERT_EQ(f.partitions.size(), 1u);
  EXPECT_EQ(f.partitions[0].at, millis(50));
  EXPECT_EQ(f.partitions[0].heal_at, millis(250));
  EXPECT_EQ(f.partitions[0].groups,
            (std::vector<std::vector<ProcessId>>{{0, 1}, {2, 3}}));
  EXPECT_TRUE(rejects({"--partition=2,100"}));  // the retired A,B form
}

TEST(RunFlags, FlagsApplyOnTopOfTheRunnersDefaults) {
  RunFlags f;
  f.process.flush_interval = millis(20);
  f.workload.depth = 48;
  EXPECT_FALSE(parse({"--ckpt-ms=7", "--workload=bank", "--seed=9"}, &f));
  EXPECT_EQ(f.process.flush_interval, millis(20));
  EXPECT_EQ(f.process.checkpoint_interval, millis(7));
  EXPECT_EQ(f.workload.kind, WorkloadKind::kBank);
  EXPECT_EQ(f.workload.depth, 48u);
  EXPECT_EQ(f.seed, 9u);
  EXPECT_TRUE(rejects({"--workload=chess"}));
}

TEST(RunFlags, BackendFlagsGoToTheHandlerAndTheRestAreUnknown) {
  bool fifo = false;
  const BackendFlagHandler backend = [&fifo](const char* arg) {
    return parse_switch(arg, "--fifo") && (fifo = true);
  };
  EXPECT_FALSE(parse({"--fifo"}, nullptr, backend));
  EXPECT_TRUE(fifo);
  EXPECT_TRUE(parse({"--fifo=1"}, nullptr, backend));
  EXPECT_TRUE(parse({"--bogus"}, nullptr, backend));
  EXPECT_TRUE(rejects({"--fifo"}));  // no backend: not a shared flag
}

TEST(RunFlags, DelayOrderAndTraceFlagsAreValidated) {
  EXPECT_TRUE(rejects({"--min-delay-us=10", "--max-delay-us=5"}));
  EXPECT_TRUE(rejects({"--trace-format=svg"}));
  EXPECT_TRUE(rejects({"--trace="}));
  RunFlags f;
  EXPECT_FALSE(parse({"--audit"}, &f));
  EXPECT_TRUE(f.tracing());
}

TEST(RunFlags, CrashPlanIsAFunctionOfSeedAndN) {
  RunFlags f;
  f.n = 6;
  f.seed = 7;
  f.crashes = 3;
  const std::vector<CrashEvent> plan = f.crash_plan();
  ASSERT_EQ(plan.size(), 3u);
  for (const CrashEvent& c : plan) {
    EXPECT_LT(c.pid, 6u);
    EXPECT_GE(c.at, millis(20));
    EXPECT_LE(c.at, millis(200));
  }
  EXPECT_EQ(f.crash_plan().size(), 3u);
  EXPECT_EQ(f.crash_plan()[2].at, plan[2].at);
  const std::vector<CrashEvent> together = f.crash_plan(/*concurrent=*/true);
  EXPECT_EQ(together.front().at, together.back().at);
}

TEST(RunFlags, WorkloadNamesRoundTrip) {
  for (WorkloadKind kind :
       {WorkloadKind::kCounter, WorkloadKind::kPingPong, WorkloadKind::kBank,
        WorkloadKind::kGossip, WorkloadKind::kService}) {
    EXPECT_EQ(workload_from_name(WorkloadSpec{kind}.name()), kind);
  }
  EXPECT_THROW(workload_from_name("chess"), std::invalid_argument);
}

}  // namespace
}  // namespace optrec
