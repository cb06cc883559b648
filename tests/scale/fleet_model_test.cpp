// Smoke tests for the simulated-fleet measurement harness (small n so they
// stay fast under TSan): byte-exact codec fidelity over real protocol
// traffic, oracle/audit-clean crash schedules, and sane byte accounting.
#include "src/scale/fleet_model.h"

#include <gtest/gtest.h>

namespace optrec::scale {
namespace {

TEST(FleetModelTest, FailureFreeRunIsByteExactAndClean) {
  FleetPiggybackConfig config;
  config.n = 8;
  config.seed = 3;
  config.intensity = 4;
  config.depth = 24;
  config.all_seed = true;
  config.audit = true;
  const FleetPiggybackReport report = run_fleet_piggyback(config);
  ASSERT_TRUE(report.quiesced);
  EXPECT_GT(report.app_frames, 0u);
  EXPECT_EQ(report.fidelity_mismatches, 0u);
  EXPECT_EQ(report.resyncs, 0u);
  EXPECT_TRUE(report.clean()) << report.first_violation;
  EXPECT_GT(report.flat_piggyback_bytes, 0u);
  EXPECT_GT(report.delta_piggyback_bytes, 0u);
  // Frame bytes = piggyback bytes + identical clock-free tails on each side.
  EXPECT_GT(report.flat_frame_bytes, report.flat_piggyback_bytes);
  EXPECT_GT(report.delta_frame_bytes, report.delta_piggyback_bytes);
}

TEST(FleetModelTest, CrashScheduleStaysOracleAndAuditClean) {
  FleetPiggybackConfig config;
  config.n = 8;
  config.seed = 17;
  config.intensity = 4;
  config.depth = 24;
  config.all_seed = true;
  config.crashes = 2;
  config.audit = true;
  const FleetPiggybackReport report = run_fleet_piggyback(config);
  ASSERT_TRUE(report.quiesced);
  EXPECT_GE(report.crashes, 2u);
  EXPECT_TRUE(report.oracle_enabled);
  EXPECT_TRUE(report.audit_enabled);
  EXPECT_TRUE(report.clean()) << report.first_violation;
  EXPECT_LE(report.max_rollbacks_per_failure, 1u);
  EXPECT_EQ(report.fidelity_mismatches, 0u);
}

TEST(FleetModelTest, AckLagShiftsBytesButNeverFidelity) {
  // Scattered traffic is the codec's worst case: its deltas are rarely
  // smaller than the flat vector, so those frames go flat. The stream
  // then costs at most flat plus one full frame per stream, whose excess
  // is the seq and epoch varints (one byte each here: epoch 1, seq 1).
  constexpr std::size_t kN = 8;
  constexpr std::uint64_t kFullFrameExcess = 2;
  FleetPiggybackConfig config;
  config.n = kN;
  config.seed = 5;
  config.all_seed = true;
  const FleetPiggybackReport report = run_fleet_piggyback(config);
  ASSERT_TRUE(report.quiesced);
  EXPECT_GT(report.app_frames, 0u);
  EXPECT_EQ(report.fidelity_mismatches, 0u);
  EXPECT_EQ(report.resyncs, 0u);
  EXPECT_LE(report.full_frames, kN * (kN - 1));
  EXPECT_LE(report.delta_frame_bytes,
            report.flat_frame_bytes + kFullFrameExcess * report.full_frames);
}

}  // namespace
}  // namespace optrec::scale
