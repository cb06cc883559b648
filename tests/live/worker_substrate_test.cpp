// Worker/channel substrate unit tests: LiveChannel's delay release,
// control-frame priority and non-FIFO pick, and the WorkerTimers queue —
// the pieces every TcpNode's worker threads run on. The whole substrate
// runs end to end in tests/live/one_node_fleet_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/live/live_channel.h"
#include "src/live/live_clock.h"
#include "src/live/worker_timers.h"
#include "src/util/rng.h"

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

// A frame delayed an hour stays queued and counted while nearer frames
// release on time, and a bounded wait that only it could end times out
// instead of surfacing it early.
TEST(LiveChannelTest, FarFutureFrameStaysQueuedWhileNearerFramesRelease) {
  LiveClock clock;
  LiveChannel channel;
  Rng rng(4);

  constexpr ProcessId kFar = 99;
  LiveFrame far;
  far.src = kFar;
  far.not_before = clock.now() + seconds(3600);
  channel.push(far);
  for (ProcessId i = 0; i < 3; ++i) {
    LiveFrame near;
    near.src = i;
    near.not_before = clock.now() + millis(2 * (i + 1));
    channel.push(near);
  }
  EXPECT_EQ(channel.size(), 4u);

  for (int i = 0; i < 3; ++i) {
    auto popped = channel.pop_ready(clock, clock.now() + millis(500), rng);
    ASSERT_TRUE(popped.has_value());
    EXPECT_NE(popped->src, kFar);
    EXPECT_GE(clock.now(), popped->not_before);
  }
  EXPECT_EQ(channel.size(), 1u);

  const SimTime wait_until = clock.now() + millis(20);
  EXPECT_FALSE(channel.pop_ready(clock, wait_until, rng).has_value());
  EXPECT_GE(clock.now(), wait_until);
  EXPECT_EQ(channel.size(), 1u);
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

}  // namespace
}  // namespace optrec
