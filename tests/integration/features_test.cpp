// Optional-feature integration tests: Remark-1 retransmission (with the
// BankApp conservation invariant), Remark-2 output commit and garbage
// collection, and the literal-TR rollback mode.
#include <gtest/gtest.h>

#include <numeric>

#include "src/app/bank_app.h"
#include "src/app/counter_app.h"
#include "src/core/output_commit.h"
#include "src/durable/durable_storage.h"
#include "src/durable/mem_fs.h"
#include "src/harness/experiment.h"
#include "src/util/serialization.h"

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

/// Run `config` and expect the bank total to be conserved.
void expect_conserved(const ScenarioConfig& config) {
  Scenario scenario(config);
  ASSERT_TRUE(scenario.run());
  ASSERT_TRUE(scenario.oracle()->check_consistency().empty());
  const auto expected =
      static_cast<std::int64_t>(config.n) * BankAppConfig{}.initial_balance;
  EXPECT_EQ(total_balance(scenario), expected)
      << "with Remark-1 retransmission no money may vanish or duplicate";
}

TEST(RetransmissionTest, BankConservesMoneyAcrossFailure) {
  // With Remark-2 GC a restarted process no longer has the log prefix that
  // recorded its oldest receipts, yet peers retransmit them all.
  for (const bool gc : {false, true}) {
    SCOPED_TRACE(gc ? "GC on" : "GC off");
    auto config = bank_config(200);
    config.process.retransmit_on_failure = true;
    config.process.enable_stability_tracking = gc;
    config.process.enable_gc = gc;
    config.failures.crashes = {{millis(30), 1}, {millis(70), 3}};
    expect_conserved(config);
  }
}

TEST(RetransmissionTest, GcKeepsMoneyConservedAcrossSeeds) {
  for (std::uint64_t seed = 200; seed < 220; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto config = bank_config(seed);
    config.process.retransmit_on_failure = true;
    config.process.enable_stability_tracking = true;
    config.process.enable_gc = true;
    config.failures.crashes = {
        {millis(30), 1}, {millis(70), 3}, {millis(150), 2}};
    expect_conserved(config);
  }
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

/// An app that receives and never sends.
class SinkApp : public App {
 public:
  void on_start(AppContext&) override {}
  void on_message(AppContext&, ProcessId, const Bytes&) override {}
  Bytes snapshot() const override { return {}; }
  void restore(const Bytes&) override {}
};

/// DG processes built directly, so apps can emit outputs; one Metrics per
/// process. The processes' output listeners hold `this`.
struct DgFleet {
  /// Output-listener events seen from one process.
  struct Events {
    std::size_t gated = 0;
    std::size_t committed = 0;
    std::size_t discarded = 0;
    std::size_t held() const { return gated - committed - discarded; }
  };

  DgFleet(std::uint64_t seed, NetworkConfig net_config, ProcessConfig pconfig,
          std::vector<std::unique_ptr<App>> apps,
          CausalityOracle* oracle = nullptr)
      : sim(seed), net(sim, net_config), metrics(apps.size()),
        events(apps.size()) {
    const std::size_t n = apps.size();
    for (ProcessId pid = 0; pid < n; ++pid) {
      procs.push_back(std::make_unique<DamaniGargProcess>(
          RuntimeEnv(sim, sim, net), pid, n, std::move(apps[pid]), pconfig,
          metrics[pid], oracle));
      procs.back()->set_output_listener(
          [this, pid](OutputEvent event, const CommittedOutput& out) {
            Events& e = events[pid];
            switch (event) {
              case OutputEvent::kGated: ++e.gated; break;
              case OutputEvent::kCommitted:
                ++e.committed;
                committed.push_back(out);
                break;
              case OutputEvent::kDiscarded: ++e.discarded; break;
            }
          });
    }
    for (auto& p : procs) {
      sim.schedule_at(0, [&p] { p->start(); });
    }
  }

  DgFleet(const DgFleet&) = delete;
  DgFleet& operator=(const DgFleet&) = delete;

  Metrics total() const {
    Metrics sum;
    for (const Metrics& m : metrics) sum.merge_from(m);
    return sum;
  }

  Simulation sim;
  Network net;
  std::vector<Metrics> metrics;
  std::vector<std::unique_ptr<DamaniGargProcess>> procs;
  std::vector<CommittedOutput> committed;
  std::vector<Events> events;  // by pid
};

std::vector<std::unique_ptr<App>> counter_apps(std::size_t n) {
  CounterAppConfig app_config;
  app_config.initial_jobs = 6;
  app_config.hops = 40;
  app_config.all_seed = true;
  app_config.output_every = 3;
  std::vector<std::unique_ptr<App>> apps;
  for (ProcessId pid = 0; pid < n; ++pid) {
    apps.push_back(std::make_unique<CounterApp>(pid, n, app_config));
  }
  return apps;
}

TEST(OutputCommitTest, CommitsHappenAndNeverExceedRequests) {
  ProcessConfig pconfig;
  pconfig.flush_interval = millis(20);
  pconfig.checkpoint_interval = millis(50);
  pconfig.enable_stability_tracking = true;
  pconfig.stability_gossip_interval = millis(30);
  DgFleet fleet(302, NetworkConfig{}, pconfig, counter_apps(3));
  fleet.sim.run(seconds(5));
  const Metrics metrics = fleet.total();
  EXPECT_GT(metrics.outputs_requested, 0u);
  EXPECT_GT(metrics.outputs_committed, 0u);
  EXPECT_LE(metrics.outputs_committed, metrics.outputs_requested);
  EXPECT_GT(metrics.output_commit_latency.count(), 0u);
  // Every committed output reached the output listener.
  EXPECT_EQ(fleet.committed.size(), metrics.outputs_committed);
}

TEST(OutputCommitTest, FlushTriggeredGossipCommitsWithoutTheTimer) {
  // The gossip timer fires only after the run: stability spreads through
  // the rounds a flush sends after an app send. Every output then commits
  // within two flush intervals and two network delays of its request
  // (a dependency's sender flushes within one interval — two for the
  // staggered first flush — and its broadcast takes one delay).
  ProcessConfig pconfig;
  pconfig.flush_interval = millis(20);
  pconfig.checkpoint_interval = millis(50);
  pconfig.enable_stability_tracking = true;
  pconfig.stability_gossip_interval = seconds(10);
  const NetworkConfig net_config;
  DgFleet fleet(302, net_config, pconfig, counter_apps(3));
  fleet.sim.run(seconds(5));

  const Metrics m = fleet.total();
  EXPECT_GT(m.outputs_requested, 0u);
  EXPECT_EQ(m.outputs_committed, m.outputs_requested);
  EXPECT_GT(m.stability_rounds_on_flush, 0u);
  EXPECT_EQ(m.control_messages_sent,
            m.stability_rounds_on_flush * (fleet.procs.size() - 1))
      << "every control message came from a flush round";
  ASSERT_EQ(fleet.committed.size(), m.outputs_committed);
  const SimTime bound =
      2 * pconfig.flush_interval + 2 * net_config.max_delay;
  for (const CommittedOutput& out : fleet.committed) {
    EXPECT_LE(out.requested_at, out.own_stable_at);
    EXPECT_LE(out.own_stable_at, out.committed_at);
    EXPECT_LE(out.committed_at - out.requested_at, bound);
  }
}

TEST(OutputCommitTest, ProcessThatSendsNothingAddsNoFlushRounds) {
  // P2 only receives: its flushes never advertise a sent state, so all of
  // its control traffic is the backstop timer's.
  ProcessConfig pconfig;
  pconfig.flush_interval = millis(20);
  pconfig.enable_stability_tracking = true;
  pconfig.stability_gossip_interval = millis(40);
  CounterAppConfig app_config;
  app_config.initial_jobs = 4;
  app_config.hops = 30;
  app_config.all_seed = true;
  std::vector<std::unique_ptr<App>> apps;
  apps.push_back(std::make_unique<CounterApp>(0, 3, app_config));
  apps.push_back(std::make_unique<CounterApp>(1, 3, app_config));
  apps.push_back(std::make_unique<SinkApp>());
  DgFleet fleet(305, NetworkConfig{}, pconfig, std::move(apps));
  fleet.sim.run(seconds(1));

  EXPECT_GT(fleet.metrics[2].messages_delivered, 0u);
  EXPECT_EQ(fleet.metrics[2].app_messages_sent, 0u);
  EXPECT_EQ(fleet.metrics[2].stability_rounds_on_flush, 0u);
  EXPECT_GT(fleet.metrics[2].control_messages_sent, 0u);
  EXPECT_GT(fleet.metrics[0].stability_rounds_on_flush, 0u);
  EXPECT_GT(fleet.metrics[1].stability_rounds_on_flush, 0u);
}

TEST(OutputCommitTest, CommittedOutputsComeOnlyFromStatesThatSurvive) {
  // The oracle records the producing state of every committed output; two
  // crashes lose unflushed states and roll their dependents back, and no
  // committed output may come from any of them.
  ProcessConfig pconfig;
  pconfig.flush_interval = millis(20);
  pconfig.checkpoint_interval = millis(50);
  pconfig.enable_stability_tracking = true;
  pconfig.stability_gossip_interval = millis(30);
  CausalityOracle oracle;
  DgFleet fleet(306, NetworkConfig{}, pconfig, counter_apps(3), &oracle);
  fleet.sim.schedule_at(millis(30), [&fleet] { fleet.procs[1]->crash(); });
  fleet.sim.schedule_at(millis(70), [&fleet] { fleet.procs[2]->crash(); });
  fleet.sim.run(seconds(5));

  const Metrics m = fleet.total();
  EXPECT_EQ(m.crashes, 2u);
  EXPECT_GT(m.rollbacks, 0u);
  EXPECT_GT(m.outputs_committed, 0u);
  EXPECT_FALSE(oracle.output_states().empty());
  EXPECT_FALSE(oracle.lost_states().empty());
  const std::vector<std::string> violations = oracle.check_consistency();
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: " << violations.front();
}

TEST(OutputCommitTest, CrashAndRollbackReportEveryGatedOutputTheyDiscard) {
  // A crash and the rollbacks it causes drop gated outputs of lost and
  // orphan states. The listener must see one kDiscarded for each, so every
  // kGated output ends in exactly one kCommitted or kDiscarded.
  ProcessConfig pconfig;
  pconfig.flush_interval = millis(20);
  pconfig.checkpoint_interval = millis(50);
  pconfig.enable_stability_tracking = true;
  pconfig.stability_gossip_interval = millis(30);
  DgFleet fleet(306, NetworkConfig{}, pconfig, counter_apps(3));
  std::size_t held_at_crash = 0;
  std::size_t discarded_by_crash = 0;
  fleet.sim.schedule_at(millis(30), [&fleet, &held_at_crash,
                                     &discarded_by_crash] {
    DgFleet::Events& e = fleet.events[1];
    held_at_crash = e.held();
    const std::size_t before = e.discarded;
    fleet.procs[1]->crash();
    discarded_by_crash = e.discarded - before;
  });
  fleet.sim.run(seconds(5));

  EXPECT_GT(held_at_crash, 0u);
  EXPECT_EQ(discarded_by_crash, held_at_crash);
  EXPECT_EQ(fleet.events[1].held(), 0u);
  // P0 and P2 never crashed: whatever they discarded, a rollback did.
  const Metrics m = fleet.total();
  EXPECT_GT(m.rollbacks, 0u);
  EXPECT_GT(fleet.events[0].discarded + fleet.events[2].discarded, 0u);
  for (ProcessId pid = 0; pid < fleet.procs.size(); ++pid) {
    const DgFleet::Events& e = fleet.events[pid];
    EXPECT_EQ(e.gated, e.committed + e.discarded) << "P" << pid;
    EXPECT_EQ(e.committed, fleet.metrics[pid].outputs_committed) << "P" << pid;
  }
}

TEST(StabilityGossipTest, MalformedControlMessagesAreDroppedAndCounted) {
  // No transport checks a control payload; a peer's bad bytes must be
  // dropped and counted, never thrown out of the receiver.
  ProcessConfig pconfig;
  pconfig.enable_stability_tracking = true;
  std::vector<std::unique_ptr<App>> apps;
  apps.push_back(std::make_unique<SinkApp>());
  apps.push_back(std::make_unique<SinkApp>());
  DgFleet fleet(307, NetworkConfig{}, pconfig, std::move(apps));

  const auto control = [](const Bytes& inner, std::uint8_t tag = 1) {
    Writer w;
    w.put_u8(tag);
    w.put_bytes(inner);
    return w.take();
  };
  StabilityTracker peer(2);
  peer.note_stable(1, 0, 99);
  const Bytes good = peer.encode();
  Bytes inner_trailing = good;
  inner_trailing.push_back(0);
  Bytes outer_trailing = control(good);
  outer_trailing.push_back(0);
  Writer truncated;  // announces two entries, carries one
  truncated.put_u32(2);
  truncated.put_u32(1);
  truncated.put_u32(0);
  truncated.put_u64(99);
  Writer bad_pid;  // a valid entry, then a pid outside the 2-process fleet
  bad_pid.put_u32(2);
  bad_pid.put_u32(1);
  bad_pid.put_u32(0);
  bad_pid.put_u64(99);
  bad_pid.put_u32(7);
  bad_pid.put_u32(0);
  bad_pid.put_u64(1);
  Bytes short_outer = control(good);
  short_outer.resize(3);
  const std::vector<Bytes> malformed = {
      {},                          // no tag
      control(good, 9),            // unknown tag
      control(truncated.take()),   // truncated vector
      short_outer,                 // truncated length-prefixed blob
      control(inner_trailing),     // trailing bytes inside the vector
      outer_trailing,              // trailing bytes after it
      control(bad_pid.take()),     // pid >= n
  };
  const auto send = [&fleet](Bytes payload) {
    Message m;
    m.kind = MessageKind::kControl;
    m.src = 1;
    m.dst = 0;
    m.payload = std::move(payload);
    fleet.net.send(std::move(m));
  };
  for (const Bytes& payload : malformed) send(payload);
  EXPECT_NO_THROW(fleet.sim.run(millis(50)));
  EXPECT_EQ(fleet.metrics[0].control_messages_malformed, malformed.size());
  EXPECT_NE(fleet.procs[0]->stability().stable_ts(1, 0), 99u)
      << "a rejected vector must not be merged in part";

  send(control(good));
  fleet.sim.run(millis(100));
  EXPECT_EQ(fleet.metrics[0].control_messages_malformed, malformed.size());
  EXPECT_EQ(fleet.procs[0]->stability().stable_ts(1, 0), 99u);
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

TEST(GarbageCollectionTest, KeepsRecoveryOracleCleanAcrossThreeCrashes) {
  // The collector reclaims while three crashes roll processes back; every
  // recovery must still be oracle-clean with one rollback per failure.
  ScenarioConfig config;
  config.n = 6;
  config.seed = 29;
  config.workload.intensity = 6;
  config.workload.depth = 40;
  config.workload.all_seed = true;
  config.process.enable_stability_tracking = true;
  config.process.enable_gc = true;
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

TEST(GarbageCollectionTest, WarmRecoveryStillDropsARetransmittedReceipt) {
  // P1 delivers a message from P0, checkpoints past it, and GC reclaims
  // the logged copy. Rebuilt from disk after a kill -9, P1 must still drop
  // P0's Remark-1 retransmission of that message as a duplicate.
  ProcessConfig pconfig;
  pconfig.checkpoint_interval = millis(10);
  pconfig.flush_interval = 0;
  pconfig.enable_stability_tracking = true;
  pconfig.stability_gossip_interval = 0;
  pconfig.enable_gc = true;
  NetworkConfig far;
  far.min_delay = far.max_delay = seconds(3600);
  // Its clock depends on no state that is not stable yet, so P1's next
  // checkpoint is covered the moment P1's own log is.
  Message from_p0;
  from_p0.src = 0;
  from_p0.dst = 1;
  from_p0.send_seq = 7;
  from_p0.clock = Ftvc::with_entries(0, std::vector<FtvcEntry>(2));
  from_p0.payload = Bytes{1};

  MemFs fs;
  DurableOptions dopts;
  dopts.dir = "p1";
  dopts.fs = &fs;
  {
    DurableBackend backend(dopts);
    backend.start_fresh();
    std::vector<std::unique_ptr<App>> apps;
    apps.push_back(std::make_unique<SinkApp>());
    apps.push_back(std::make_unique<SinkApp>());
    DgFleet fleet(308, far, pconfig, std::move(apps));
    DamaniGargProcess& p1 = *fleet.procs[1];
    p1.storage().attach_sink(&backend);
    fleet.sim.schedule_at(millis(1), [&] { p1.on_message(from_p0); });
    fleet.sim.run(millis(20));  // P1 checkpoints at 15 ms
    ASSERT_EQ(p1.delivered_count(), 1u);
    ASSERT_EQ(p1.storage().log().base(), 1u) << "GC reclaimed the receipt";
  }

  auto image = fs.crash_image();
  DurableOptions ropts = dopts;
  ropts.fs = image.get();
  DurableBackend backend(ropts);
  Simulation sim(309);
  Network net(sim, far);
  Metrics metrics;
  DamaniGargProcess p0(RuntimeEnv(sim, sim, net), 0, 2,
                       std::make_unique<SinkApp>(), pconfig, metrics);
  DamaniGargProcess p1(RuntimeEnv(sim, sim, net), 1, 2,
                       std::make_unique<SinkApp>(), pconfig, metrics);
  ASSERT_TRUE(backend.recover_into(p1.storage()).warm);
  p1.storage().attach_sink(&backend);
  p0.start();
  p1.start_recovered();
  ASSERT_EQ(p1.delivered_count(), 1u);

  Message resent = from_p0;
  resent.retransmission = true;
  p1.on_message(resent);
  EXPECT_EQ(metrics.messages_discarded_duplicate, 1u);
  EXPECT_EQ(p1.delivered_count(), 1u) << "the receipt was applied twice";
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
