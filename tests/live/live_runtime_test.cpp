// Live-runtime tests: real threads, real time, post-hoc ground truth.
//
// The seeded smoke tests run a 4-process fleet of each protocol with one
// injected crash and validate the run the same way the simulator tests do:
// the causality oracle's consistency check, the trace auditor's invariant
// replay, and an explicit no-double-delivery check over message fates.
// Latency/throughput numbers are not asserted (they are machine-dependent);
// correctness properties are.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/live/live_channel.h"
#include "src/live/live_clock.h"
#include "src/live/live_runtime.h"
#include "src/live/live_transport.h"
#include "src/live/worker_timers.h"
#include "src/trace/trace_auditor.h"
#include "src/util/rng.h"
#include "src/wire/wire_codec.h"

namespace optrec {
namespace {

// ---------------------------------------------------------------- channel

TEST(LiveChannelTest, HoldsFrameUntilNotBefore) {
  LiveClock clock;
  LiveChannel channel;
  Rng rng(1);

  LiveFrame f;
  f.not_before = clock.now() + millis(20);
  channel.push(f);

  // Not ready yet: a short wait must time out.
  EXPECT_FALSE(channel.pop_ready(clock, clock.now() + millis(1), rng));
  // Waiting past the delay must surface it.
  auto popped = channel.pop_ready(clock, clock.now() + millis(100), rng);
  ASSERT_TRUE(popped.has_value());
  EXPECT_GE(clock.now(), f.not_before);
}

TEST(LiveChannelTest, DueControlFrameBeatsWireBacklog) {
  LiveClock clock;
  LiveChannel channel;
  Rng rng(2);

  for (int i = 0; i < 16; ++i) {
    LiveFrame wire;
    wire.kind = LiveFrame::Kind::kWire;
    channel.push(wire);
  }
  LiveFrame crash;
  crash.kind = LiveFrame::Kind::kCrash;
  channel.push(crash);

  auto popped = channel.pop_ready(clock, clock.now() + millis(50), rng);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->kind, LiveFrame::Kind::kCrash);
}

TEST(LiveChannelTest, PickAmongReadyFramesIsNotFifo) {
  LiveClock clock;
  LiveChannel channel;
  Rng rng(3);

  // Push frames tagged by src; popping all of them in push order every time
  // would mean FIFO. With a random ready pick over 32 frames the chance of
  // observing exact push order by accident is 1/32!.
  constexpr ProcessId kFrames = 32;
  for (ProcessId i = 0; i < kFrames; ++i) {
    LiveFrame f;
    f.src = i;
    channel.push(f);
  }
  std::vector<ProcessId> order;
  for (ProcessId i = 0; i < kFrames; ++i) {
    auto popped = channel.pop_ready(clock, clock.now() + millis(50), rng);
    ASSERT_TRUE(popped.has_value());
    order.push_back(popped->src);
  }
  std::vector<ProcessId> fifo(kFrames);
  for (ProcessId i = 0; i < kFrames; ++i) fifo[i] = i;
  EXPECT_NE(order, fifo);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, fifo);  // nothing lost, nothing duplicated
}

// ----------------------------------------------------------------- timers

TEST(WorkerTimersTest, FiresDueTimersInDeadlineOrder) {
  LiveClock clock;
  WorkerTimers timers(clock);
  std::vector<int> fired;
  timers.schedule_after(0, [&] { fired.push_back(1); });
  timers.schedule_after(0, [&] { fired.push_back(2); });
  EXPECT_NE(timers.next_deadline(), kSimTimeMax);
  timers.fire_due();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_TRUE(timers.empty());
  EXPECT_EQ(timers.next_deadline(), kSimTimeMax);
}

TEST(WorkerTimersTest, CancelledTimerNeverFires) {
  LiveClock clock;
  WorkerTimers timers(clock);
  bool fired = false;
  const TimerId id = timers.schedule_after(0, [&] { fired = true; });
  timers.cancel(id);
  EXPECT_EQ(timers.next_deadline(), kSimTimeMax);
  timers.fire_due();
  EXPECT_FALSE(fired);
}

TEST(WorkerTimersTest, CallbackMayScheduleMore) {
  LiveClock clock;
  WorkerTimers timers(clock);
  int count = 0;
  timers.schedule_after(0, [&] {
    ++count;
    timers.schedule_after(0, [&] { ++count; });
  });
  timers.fire_due();  // fires both: the second is due immediately too
  EXPECT_EQ(count, 2);
}

// ------------------------------------------------------------- smoke runs

LiveConfig smoke_config(ProtocolKind protocol, std::uint64_t seed) {
  LiveConfig config;
  config.n = 4;
  config.seed = seed;
  config.protocol = protocol;
  config.workload.intensity = 4;
  config.workload.depth = 24;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(8);
  config.process.checkpoint_interval = millis(30);
  config.enable_oracle = true;
  config.enable_trace = true;
  config.time_cap = seconds(20);
  // One crash while traffic is in full swing.
  config.crashes.push_back({millis(30), 1});
  return config;
}

/// No message may end up delivered in two surviving states: every fate's
/// receiver states must contain at most one that was neither rolled back
/// nor wiped by a crash.
void expect_no_double_delivery(const CausalityOracle& oracle) {
  for (const auto& [msg, fate] : oracle.messages()) {
    int surviving = 0;
    for (StateId s : fate.receiver_states) {
      if (!oracle.was_rolled_back(s) && !oracle.is_lost(s)) ++surviving;
    }
    EXPECT_LE(surviving, 1) << "message " << msg << " survives in "
                            << surviving << " receiver states";
  }
}

void run_smoke(ProtocolKind protocol, std::uint64_t seed) {
  LiveRuntime runtime(smoke_config(protocol, seed));
  const LiveResult result = runtime.run();

  EXPECT_TRUE(result.quiesced);
  EXPECT_EQ(result.metrics.crashes, 1u);
  EXPECT_EQ(result.metrics.restarts, 1u);
  EXPECT_GT(result.metrics.messages_delivered, 0u);
  EXPECT_GT(result.delivery_latency_us.count(), 0u);
  EXPECT_GT(result.metrics.piggyback_bytes, 0u);

  ASSERT_NE(runtime.oracle(), nullptr);
  EXPECT_EQ(runtime.oracle()->check_consistency(), std::vector<std::string>{});
  expect_no_double_delivery(*runtime.oracle());

  ASSERT_NE(runtime.trace(), nullptr);
  const AuditReport report = audit_trace(runtime.trace()->events());
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(LiveRuntimeSmokeTest, DamaniGargSurvivesCrash) {
  run_smoke(ProtocolKind::kDamaniGarg, 101);
}

TEST(LiveRuntimeSmokeTest, PessimisticSurvivesCrash) {
  run_smoke(ProtocolKind::kPessimistic, 102);
}

TEST(LiveRuntimeSmokeTest, CoordinatedSurvivesCrash) {
  run_smoke(ProtocolKind::kCoordinated, 103);
}

TEST(LiveRuntimeTest, FailureFreeRunHasNoRecoveryTraffic) {
  LiveConfig config = smoke_config(ProtocolKind::kDamaniGarg, 104);
  config.crashes.clear();
  LiveRuntime runtime(config);
  const LiveResult result = runtime.run();

  EXPECT_TRUE(result.quiesced);
  EXPECT_EQ(result.metrics.crashes, 0u);
  EXPECT_EQ(result.metrics.rollbacks, 0u);
  EXPECT_EQ(result.net.tokens_sent, 0u);
  // Damani-Garg sends no control messages in failure-free runs (Sec. 6.9).
  EXPECT_EQ(result.metrics.control_messages_sent, 0u);
  EXPECT_EQ(runtime.oracle()->check_consistency(),
            std::vector<std::string>{});
}

TEST(LiveRuntimeTest, InjectedDuplicatesAreFiltered) {
  LiveConfig config = smoke_config(ProtocolKind::kDamaniGarg, 105);
  config.faults.duplicate_prob = 0.2;
  LiveRuntime runtime(config);
  const LiveResult result = runtime.run();

  EXPECT_TRUE(result.quiesced);
  EXPECT_GT(result.net.messages_duplicated, 0u);
  EXPECT_GT(result.metrics.messages_discarded_duplicate, 0u);
  EXPECT_EQ(runtime.oracle()->check_consistency(),
            std::vector<std::string>{});
  expect_no_double_delivery(*runtime.oracle());
}

TEST(LiveTransportTest, BroadcastFanoutDeliversToAllPeersOffCallerThread) {
  // Unit test of the sharded broadcast: the caller returns immediately
  // (accounting done synchronously), the fan-out thread does the pushes,
  // and every channel except the announcer's ends up with the token frame.
  LiveClock clock;
  LiveFaultConfig faults;
  faults.min_delay = 0;
  faults.max_delay = 0;
  constexpr std::size_t kN = 6;
  LiveTransport transport(clock, kN, /*seed=*/5, faults);

  struct NullEndpoint : Endpoint {
    bool is_up() const override { return true; }
    void on_message(const Message&) override {}
    void on_token(const Token&) override {}
  };
  NullEndpoint endpoints[kN];
  for (ProcessId pid = 0; pid < kN; ++pid) {
    transport.attach(pid, &endpoints[pid]);
  }

  Token token;
  token.from = 2;
  token.failed = {1, 7};
  transport.broadcast_token(token);

  // tokens_sent is bumped before the handoff, so in-flight is immediately
  // visible even if the fan-out thread has not run yet.
  EXPECT_EQ(transport.counters().stats().tokens_sent, kN - 1);
  Rng rng(9);
  for (ProcessId pid = 0; pid < kN; ++pid) {
    if (pid == token.from) continue;
    auto frame = transport.channel(pid).pop_ready(
        clock, clock.now() + seconds(5), rng);
    ASSERT_TRUE(frame.has_value()) << "no token reached P" << pid;
    EXPECT_TRUE(frame->token);
    const Frame decoded = decode_frame(frame->wire.bytes());
    ASSERT_EQ(decoded.type, FrameType::kToken);
    EXPECT_EQ(decoded.token.from, token.from);
    EXPECT_EQ(decoded.token.failed, token.failed);
    transport.counters().note_delivered_token();
  }
  EXPECT_EQ(transport.counters().tokens_in_flight(), 0u);
  EXPECT_EQ(transport.channel(token.from).size(), 0u);
}

TEST(LiveRuntimeTest, ScriptedPartitionHoldsCrossGroupTrafficUntilHeal) {
  LiveConfig config = smoke_config(ProtocolKind::kDamaniGarg, 107);
  config.crashes.clear();
  // Cut early, while the causal web is still being seeded, so cross-group
  // traffic is guaranteed to be in flight when the partition lands.
  PartitionEvent split;
  split.at = millis(10);
  split.heal_at = millis(180);
  split.groups = {{0, 1}, {2, 3}};
  config.faults.partitions.push_back(split);
  LiveRuntime runtime(config);
  const LiveResult result = runtime.run();

  // The counter workload's causal web crosses the cut, so the run cannot
  // quiesce before the heal — and must still quiesce cleanly after it.
  EXPECT_TRUE(result.quiesced);
  EXPECT_GE(result.wall_time, split.heal_at);
  EXPECT_EQ(runtime.oracle()->check_consistency(),
            std::vector<std::string>{});
  expect_no_double_delivery(*runtime.oracle());
}

TEST(LiveRuntimeTest, CrashDuringPartitionStillRecovers) {
  LiveConfig config = smoke_config(ProtocolKind::kDamaniGarg, 108);
  config.crashes = {{millis(30), 2}};
  PartitionEvent split;
  split.at = millis(10);
  split.heal_at = millis(160);
  split.groups = {{0, 1}, {2, 3}};
  config.faults.partitions.push_back(split);
  LiveRuntime runtime(config);
  const LiveResult result = runtime.run();

  EXPECT_TRUE(result.quiesced);
  EXPECT_EQ(result.metrics.crashes, 1u);
  EXPECT_EQ(result.metrics.restarts, 1u);
  EXPECT_EQ(runtime.oracle()->check_consistency(),
            std::vector<std::string>{});
  expect_no_double_delivery(*runtime.oracle());
  ASSERT_NE(runtime.trace(), nullptr);
  const AuditReport report = audit_trace(runtime.trace()->events());
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(LiveRuntimeTest, ReportsTimeCapAsNonQuiescent) {
  LiveConfig config = smoke_config(ProtocolKind::kDamaniGarg, 106);
  config.crashes.clear();
  config.time_cap = millis(1);  // expires before the workload can finish
  LiveRuntime runtime(config);
  const LiveResult result = runtime.run();
  EXPECT_FALSE(result.quiesced);
}

}  // namespace
}  // namespace optrec
