// Durability case kind end to end: the engine's sweep must pass the real
// implementation clean, catch both WAL ablations (negative controls),
// shrink violations to replayable minimal cases, and round-trip repro
// artifacts through JSON.
#include <gtest/gtest.h>

#include <string>

#include "src/explore/durability_case.h"

namespace optrec {
namespace {

SweepOptions base_opts() {
  SweepOptions opts;
  opts.runs = 150;
  opts.seed = 5;
  opts.jobs = 1;
  opts.shrink_budget = 120;
  return opts;
}

DurabilityKind kind(const std::string& mutation = "") {
  DurabilityKind k;
  k.ops = 40;
  k.mutation = mutation;
  return k;
}

TEST(DurabilitySweep, RealImplementationSweepsClean) {
  const SweepReport<DurabilityCase> report = run_sweep(kind(), base_opts());
  EXPECT_EQ(report.runs_completed, 150u);
  EXPECT_TRUE(report.ok()) << report.violation_runs << " violation runs, "
                           << report.repros.size() << " repros";
  EXPECT_GT(report.coverage_buckets, 10u)
      << "sweep did not explore distinct crash outcomes";
}

TEST(DurabilitySweep, SkipCrcAblationIsCaughtAndShrinks) {
  SweepOptions opts = base_opts();
  opts.runs = 300;
  opts.jobs = 2;
  DurabilityKind skip_crc = kind("skip-crc");
  skip_crc.corrupt_prob = 0.5;  // the CRC hole only shows under corruption
  const SweepReport<DurabilityCase> report = run_sweep(skip_crc, opts);
  EXPECT_EQ(report.runs_completed, 300u);
  ASSERT_GT(report.violation_runs, 0u);
  ASSERT_FALSE(report.repros.empty());

  // Every shrunk minimal case still reproduces its violation category.
  for (const ReproArtifact<DurabilityCase>& repro : report.repros) {
    const DurabilityOutcome rerun = run_durability_case(repro.minimal);
    EXPECT_TRUE(repro.expect.matches(rerun.violations))
        << "minimal case lost [" << repro.violation.category << "]";
  }
}

TEST(DurabilitySweep, AsyncTokensAblationIsCaught) {
  SweepOptions opts = base_opts();
  opts.runs = 300;
  const SweepReport<DurabilityCase> report =
      run_sweep(kind("async-tokens"), opts);
  ASSERT_GT(report.violation_runs, 0u)
      << "buffered tokens must lose durable state under kill -9";
  ASSERT_FALSE(report.repros.empty());
  const DurabilityOutcome rerun = run_durability_case(report.repros[0].minimal);
  EXPECT_TRUE(report.repros[0].expect.matches(rerun.violations));
}

TEST(DurabilityCase, OutcomeIsDeterministic) {
  DurabilityCase c;
  c.seed = 987654321;
  c.ops = 40;
  c.crash_at_op = 9;
  c.garble_tail = 1.0;
  const DurabilityOutcome a = run_durability_case(c);
  const DurabilityOutcome b = run_durability_case(c);
  EXPECT_EQ(a.signatures, b.signatures);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.completed_ops, b.completed_ops);
  EXPECT_EQ(a.fs_ops, b.fs_ops);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].message, b.violations[i].message);
  }
}

TEST(DurabilityCase, PowerCutRecoversTheFinalDurableState) {
  // No crash mid-schedule: everything synced must come back, no violations.
  DurabilityCase c;
  c.seed = 31337;
  c.ops = 60;
  const DurabilityOutcome out = run_durability_case(c);
  EXPECT_FALSE(out.crashed);
  EXPECT_TRUE(out.ok()) << (out.violations.empty()
                                ? std::string()
                                : out.violations.front().message);
  EXPECT_TRUE(out.warm) << "schedules start with a checkpoint, so a "
                           "power-cut image always has a manifest";
}

TEST(DurabilityRepro, JsonRoundTrip) {
  DurabilityCase c;
  c.seed = 0xdeadbeefcafe;
  c.ops = 23;
  c.crash_at_op = 17;
  c.garble_tail = 1.0;
  c.corrupt_durable = true;
  c.mutation = "async-tokens";
  const Expectation expect{"durability", "durable-loss"};

  const std::string json = repro_to_json(DurabilityKind{}, c, expect);
  EXPECT_EQ(repro_schema(json), DurabilityKind::kSchema);

  Expectation expect_back;
  const DurabilityCase back =
      parse_repro_json(DurabilityKind{}, json, &expect_back);
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.ops, c.ops);
  EXPECT_EQ(back.crash_at_op, c.crash_at_op);
  EXPECT_EQ(back.garble_tail, c.garble_tail);
  EXPECT_EQ(back.corrupt_durable, c.corrupt_durable);
  EXPECT_EQ(back.mutation, c.mutation);
  EXPECT_EQ(expect_back.kind, expect.kind);
  EXPECT_EQ(expect_back.category, expect.category);

  // Power-cut cases omit crash_at_op and parse back as never-crash.
  DurabilityCase powercut;
  powercut.seed = 42;
  const std::string pj =
      repro_to_json(DurabilityKind{}, powercut, Expectation{});
  EXPECT_EQ(pj.find("crash_at_op"), std::string::npos);
  Expectation pexpect;
  const DurabilityCase pback =
      parse_repro_json(DurabilityKind{}, pj, &pexpect);
  EXPECT_GE(pback.crash_at_op, 1ull << 40);
}

TEST(DurabilityRepro, RejectsForeignArtifacts) {
  Expectation e;
  EXPECT_THROW(
      parse_repro_json(DurabilityKind{}, "{\"schema\":\"bogus\"}", &e),
      std::exception);
  EXPECT_THROW(parse_repro_json(DurabilityKind{}, "not json at all", &e),
               std::exception);
}

}  // namespace
}  // namespace optrec
