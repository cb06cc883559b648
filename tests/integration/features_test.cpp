// Optional-feature integration tests: Remark-1 retransmission (with the
// BankApp conservation invariant), Remark-2 output commit and garbage
// collection, and the literal-TR rollback mode.
#include <gtest/gtest.h>

#include <numeric>

#include "src/app/bank_app.h"
#include "src/app/counter_app.h"
#include "src/harness/experiment.h"

namespace optrec {
namespace {

ScenarioConfig bank_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.n = 4;
  config.seed = seed;
  config.workload.kind = WorkloadKind::kBank;
  config.workload.intensity = 3;
  config.workload.depth = 32;
  config.process.flush_interval = millis(20);
  config.process.checkpoint_interval = millis(100);
  return config;
}

std::int64_t total_balance(Scenario& scenario) {
  std::int64_t total = 0;
  for (ProcessId pid = 0; pid < scenario.size(); ++pid) {
    total += dynamic_cast<const BankApp&>(scenario.process(pid).app()).balance();
  }
  return total;
}

TEST(RetransmissionTest, BankConservesMoneyAcrossFailure) {
  auto config = bank_config(200);
  config.process.retransmit_on_failure = true;
  config.failures.crashes = {{millis(30), 1}, {millis(70), 3}};
  Scenario scenario(config);
  ASSERT_TRUE(scenario.run());
  ASSERT_TRUE(scenario.oracle()->check_consistency().empty());
  const auto expected =
      static_cast<std::int64_t>(config.n) * BankAppConfig{}.initial_balance;
  EXPECT_EQ(total_balance(scenario), expected)
      << "with Remark-1 retransmission no money may vanish or duplicate";
}

TEST(RetransmissionTest, WithoutItMoneyMayVanishButNeverAppears) {
  auto config = bank_config(201);
  config.process.retransmit_on_failure = false;
  config.failures.crashes = {{millis(30), 1}, {millis(70), 3}};
  Scenario scenario(config);
  ASSERT_TRUE(scenario.run());
  ASSERT_TRUE(scenario.oracle()->check_consistency().empty());
  const auto expected =
      static_cast<std::int64_t>(config.n) * BankAppConfig{}.initial_balance;
  EXPECT_LE(total_balance(scenario), expected)
      << "duplication would mean a rollback undone on one side only";
}

TEST(RetransmissionTest, TokensCarryRestoredClock) {
  auto config = bank_config(202);
  config.process.retransmit_on_failure = true;
  config.failures = FailurePlan::single(0, millis(40));
  Scenario scenario(config);
  std::vector<Token> tokens;
  scenario.net().set_token_tap([&](const Token& t) { tokens.push_back(t); });
  ASSERT_TRUE(scenario.run());
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_TRUE(tokens[0].restored_clock.has_value());
}

TEST(RetransmissionTest, DuplicatesAreFiltered) {
  auto config = bank_config(203);
  config.process.retransmit_on_failure = true;
  // Crash after most receipts are flushed: many retransmissions will be of
  // already-recovered messages and must be deduplicated, not redelivered.
  config.process.flush_interval = millis(5);
  config.failures = FailurePlan::single(1, millis(60));
  const auto result = run_experiment(config);
  EXPECT_TRUE(result.quiesced);
  if (result.metrics.retransmissions > 0) {
    EXPECT_GE(result.metrics.retransmissions,
              result.metrics.messages_discarded_duplicate);
  }
}

ScenarioConfig output_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.n = 3;
  config.seed = seed;
  config.workload.kind = WorkloadKind::kCounter;
  config.workload.intensity = 4;
  config.workload.depth = 48;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(20);
  config.process.checkpoint_interval = millis(60);
  config.process.enable_stability_tracking = true;
  config.process.stability_gossip_interval = millis(40);
  return config;
}

TEST(OutputCommitTest, OutputsGatedUntilStable) {
  // CounterApp with output_every needs a custom factory; emulate via the
  // workload's counter app by asserting the gating machinery itself: with
  // stability tracking on, gossip flows and commits trail requests.
  auto config = output_config(300);
  Scenario scenario(config);
  ASSERT_TRUE(scenario.run());
  EXPECT_GT(scenario.metrics().control_messages_sent, 0u)
      << "stability gossip is control traffic";
}

TEST(OutputCommitTest, RequestedOutputsEventuallyCommit) {
  ScenarioConfig config = output_config(301);
  Scenario scenario(config);
  // Swap in apps that emit outputs: rebuild via a dedicated scenario with a
  // counter workload that outputs; instead drive outputs through BankApp is
  // not possible — use CounterApp's output_every through a custom factory.
  // (Covered more directly below via direct process construction.)
  ASSERT_TRUE(scenario.run());
  EXPECT_EQ(scenario.metrics().outputs_requested,
            scenario.metrics().outputs_committed);
}

TEST(OutputCommitTest, CommitsHappenAndNeverExceedRequests) {
  // Direct construction so the app emits outputs.
  Simulation sim(302);
  NetworkConfig net_config;
  Network net(sim, net_config);
  Metrics metrics;
  ProcessConfig pconfig;
  pconfig.flush_interval = millis(20);
  pconfig.checkpoint_interval = millis(50);
  pconfig.enable_stability_tracking = true;
  pconfig.stability_gossip_interval = millis(30);

  CounterAppConfig app_config;
  app_config.initial_jobs = 6;
  app_config.hops = 40;
  app_config.all_seed = true;
  app_config.output_every = 3;
  std::vector<std::unique_ptr<DamaniGargProcess>> procs;
  std::size_t committed_events = 0;
  for (ProcessId pid = 0; pid < 3; ++pid) {
    procs.push_back(std::make_unique<DamaniGargProcess>(
        RuntimeEnv(sim, sim, net), pid, 3, std::make_unique<CounterApp>(pid, 3, app_config),
        pconfig, metrics, nullptr));
    procs.back()->set_output_listener(
        [&committed_events](OutputEvent event, const CommittedOutput&) {
          if (event == OutputEvent::kCommitted) ++committed_events;
        });
  }
  for (auto& p : procs) {
    sim.schedule_at(0, [&p] { p->start(); });
  }
  sim.run(seconds(5));
  EXPECT_GT(metrics.outputs_requested, 0u);
  EXPECT_GT(metrics.outputs_committed, 0u);
  EXPECT_LE(metrics.outputs_committed, metrics.outputs_requested);
  EXPECT_GT(metrics.output_commit_latency.count(), 0u);
  // Every committed output reached the output listener.
  EXPECT_EQ(committed_events, metrics.outputs_committed);
}

TEST(GarbageCollectionTest, ReclaimsStorageDuringLongRun) {
  auto config = output_config(303);
  config.process.enable_gc = true;
  config.workload.depth = 64;
  const auto result = run_experiment(config);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_GT(result.metrics.gc_checkpoints_reclaimed +
                result.metrics.gc_log_entries_reclaimed,
            0u);
}

TEST(GarbageCollectionTest, SafeWithFailures) {
  auto config = output_config(304);
  config.process.enable_gc = true;
  config.failures.crashes = {{millis(50), 1}, {millis(120), 0}};
  const auto result = run_experiment(config);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(result.violations.empty());
}

TEST(LiteralTrModeTest, StillConsistentJustLossier) {
  ScenarioConfig config;
  config.n = 4;
  config.seed = 305;
  config.workload.kind = WorkloadKind::kCounter;
  config.workload.intensity = 6;
  config.workload.depth = 48;
  config.workload.all_seed = true;
  config.process.discard_rollback_suffix = true;
  config.process.flush_interval = millis(20);
  config.failures.crashes = {{millis(30), 1}, {millis(70), 2}};
  const auto result = run_experiment(config);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_EQ(result.metrics.messages_requeued_after_rollback, 0u);
}

}  // namespace
}  // namespace optrec
