// Tests for the tunable Remark-2 GC: level parsing, token-log compaction
// safety, the aggressiveness ordering across levels, and — the part that
// matters — a crashing fleet under aggressive GC still recovers cleanly.
#include "src/scale/gc_policy.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/harness/scenario.h"
#include "src/scale/fleet_model.h"
#include "src/storage/stable_storage.h"

namespace optrec::scale {
namespace {

Token token(ProcessId from, FtvcEntry failed) {
  Token t;
  t.from = from;
  t.failed = failed;
  return t;
}

TEST(GcPolicyTest, LevelNamesRoundTrip) {
  for (GcLevel level : {GcLevel::kOff, GcLevel::kConservative,
                        GcLevel::kStandard, GcLevel::kAggressive}) {
    EXPECT_EQ(parse_gc_level(gc_level_name(level)), level);
  }
  EXPECT_THROW(parse_gc_level("bogus"), std::invalid_argument);
}

TEST(GcPolicyTest, TokenLogCompactionKeepsLastPerVersion) {
  StableStorage storage;
  // Three tokens for (p1, v1) — only the last matters on replay — plus one
  // each for (p1, v2) and (p2, v1).
  storage.log_token(token(1, {1, 10}));
  storage.log_token(token(1, {1, 20}));
  storage.log_token(token(2, {1, 5}));
  storage.log_token(token(1, {1, 30}));
  storage.log_token(token(1, {2, 40}));
  const std::size_t removed = storage.compact_token_log();
  EXPECT_EQ(removed, 2u);  // the two earlier (p1, v1) tokens
  const auto& log = storage.token_log();
  ASSERT_EQ(log.size(), 3u);
  // Order of survivors preserved; the (p1, v1) survivor is the LAST one.
  EXPECT_EQ(log[0].from, 2u);
  EXPECT_EQ(log[1].from, 1u);
  EXPECT_EQ(log[1].failed.ver, 1u);
  EXPECT_EQ(log[1].failed.ts, 30u);
  EXPECT_EQ(log[2].failed.ver, 2u);
  // Idempotent.
  EXPECT_EQ(storage.compact_token_log(), 0u);
}

TEST(GcPolicyTest, OffHoldsEverythingAndLevelsOrderByAggressiveness) {
  FleetGcConfig config;
  config.n = 6;
  config.seed = 11;
  config.crashes = 2;

  config.level = GcLevel::kOff;
  const FleetGcReport off = run_fleet_gc(config);
  config.level = GcLevel::kConservative;
  const FleetGcReport conservative = run_fleet_gc(config);
  config.level = GcLevel::kStandard;
  const FleetGcReport standard = run_fleet_gc(config);
  config.level = GcLevel::kAggressive;
  const FleetGcReport aggressive = run_fleet_gc(config);

  ASSERT_TRUE(off.quiesced);
  ASSERT_TRUE(conservative.quiesced);
  ASSERT_TRUE(standard.quiesced);
  ASSERT_TRUE(aggressive.quiesced);

  EXPECT_EQ(off.checkpoints_reclaimed, 0u);
  EXPECT_EQ(off.log_entries_reclaimed, 0u);
  EXPECT_EQ(off.reclaimed_bytes, 0u);
  EXPECT_GT(off.held_intervals, 0u);  // telemetry still flows when off

  // Same workload, same seed: reclaim ordering must follow the knob.
  EXPECT_LE(conservative.checkpoints_reclaimed, standard.checkpoints_reclaimed);
  EXPECT_GT(standard.reclaimed_bytes, 0u);
  EXPECT_GE(aggressive.reclaimed_bytes, standard.reclaimed_bytes);
  // The crash schedule logged tokens; aggressive is the only level that
  // compacts them.
  EXPECT_EQ(standard.tokens_compacted, 0u);
}

TEST(GcPolicyTest, AggressiveGcKeepsRecoveryOracleClean) {
  ScenarioConfig config;
  config.n = 6;
  config.seed = 29;
  config.workload.intensity = 6;
  config.workload.depth = 40;
  config.workload.all_seed = true;
  config.process.enable_stability_tracking = true;
  config.process.enable_gc = true;
  config.process.gc.level = GcLevel::kAggressive;
  config.process.gc.keep_checkpoints = 0;
  config.enable_oracle = true;
  Rng rng(7);
  config.failures = FailurePlan::random(rng, config.n, 3, millis(30),
                                        millis(400));
  Scenario scenario(std::move(config));
  ASSERT_TRUE(scenario.run());
  EXPECT_TRUE(scenario.oracle()->check_consistency().empty());
  EXPECT_LE(scenario.metrics().max_rollbacks_per_process_per_failure(), 1u);
  EXPECT_GT(scenario.metrics().gc_reclaimed_bytes, 0u);
}

}  // namespace
}  // namespace optrec::scale
