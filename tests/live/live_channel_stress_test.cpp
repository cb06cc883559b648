// LiveChannel data-plane hammer: the ring/heap/doorbell channel under
// real producer concurrency, plus the delay-routed control-preemption
// property (a crash frame that matures inside the delay heap must beat
// any backlog of due wire frames).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/live/live_channel.h"
#include "src/live/live_clock.h"
#include "src/util/rng.h"

namespace optrec {
namespace {

LiveFrame wire_frame(ProcessId src, SimTime not_before, SimTime sent_at) {
  LiveFrame f;
  f.kind = LiveFrame::Kind::kWire;
  f.src = src;
  f.wire = std::make_shared<const Bytes>(Bytes{1, 2, 3});
  f.not_before = not_before;
  f.sent_at = sent_at;
  return f;
}

// N producers push a mix of due and delayed frames while the consumer
// pops and side threads read size()/high-water. Every frame must come out
// exactly once, and never before its not_before.
TEST(LiveChannelStressTest, ConcurrentProducersDelayMixLosesNothing) {
  LiveClock clock;
  LiveChannel channel;
  Rng pop_rng(11);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&channel, &clock, p] {
      Rng rng(static_cast<std::uint64_t>(p) + 100);
      for (int i = 0; i < kPerProducer; ++i) {
        const SimTime now = clock.now();
        // ~half due immediately, ~half parked in the delay heap briefly.
        const SimTime delay = rng.chance(0.5) ? 0 : rng.uniform(2000);
        channel.push(wire_frame(static_cast<ProcessId>(p), now + delay, now));
      }
    });
  }
  std::thread reader([&channel, &done] {
    std::uint64_t sink = 0;
    while (!done.load(std::memory_order_acquire)) {
      sink += channel.size() + channel.ring_high_water();
    }
    ASSERT_GE(sink, 0u);
  });

  std::vector<int> per_src(kProducers, 0);
  std::size_t popped = 0;
  while (popped < static_cast<std::size_t>(kProducers) * kPerProducer) {
    auto f = channel.pop_ready(clock, clock.now() + millis(200), pop_rng);
    ASSERT_TRUE(f.has_value()) << "timed out with " << popped << " popped";
    ASSERT_LE(f->not_before, clock.now()) << "frame released early";
    ASSERT_LT(f->src, static_cast<ProcessId>(kProducers));
    ASSERT_EQ(f->wire->size(), 3u);
    ++per_src[f->src];
    ++popped;
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(per_src[p], kPerProducer);
  EXPECT_EQ(channel.size(), 0u);
}

// A crash frame that matures through the delay heap preempts due wire
// traffic the moment it becomes due, even when wire frames keep arriving.
TEST(LiveChannelTest, WheelRoutedCrashPreemptsDueWireBacklog) {
  LiveClock clock;
  LiveChannel channel;
  Rng rng(5);

  const SimTime crash_at = clock.now() + millis(5);
  LiveFrame crash;
  crash.kind = LiveFrame::Kind::kCrash;
  crash.not_before = crash_at;  // parks in the consumer's delay heap
  channel.push(crash);
  for (int i = 0; i < 64; ++i) {
    channel.push(wire_frame(1, /*not_before=*/0, clock.now()));
  }

  // Before the crash matures, pops must yield wire frames only. (Guarded:
  // on a badly stalled machine the crash may already be due.)
  auto first = channel.pop_ready(clock, clock.now() + millis(1), rng);
  ASSERT_TRUE(first.has_value());
  std::size_t wire_popped = 0;
  if (first->kind == LiveFrame::Kind::kWire) {
    ++wire_popped;
  } else {
    EXPECT_GE(clock.now(), crash_at) << "crash released before its time";
  }

  // Once due, the crash wins over the whole remaining wire backlog.
  while (clock.now() < crash_at) {
  }
  auto popped = channel.pop_ready(clock, clock.now() + millis(50), rng);
  ASSERT_TRUE(popped.has_value());
  if (wire_popped == 1) {
    EXPECT_EQ(popped->kind, LiveFrame::Kind::kCrash);
    EXPECT_EQ(channel.size(), 63u);
  }
}

}  // namespace
}  // namespace optrec
