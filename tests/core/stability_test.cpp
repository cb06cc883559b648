// Stability tracker + garbage collector tests (paper Remark 2 machinery).
#include <gtest/gtest.h>

#include "src/core/output_commit.h"
#include "src/storage/stable_storage.h"

namespace optrec {
namespace {

TEST(StabilityTrackerTest, SeededWithVersionZero) {
  const StabilityTracker t(3);
  EXPECT_EQ(t.stable_ts(0, 0), 0u);
  EXPECT_EQ(t.stable_ts(2, 0), 0u);
  EXPECT_FALSE(t.stable_ts(0, 1).has_value());
}

TEST(StabilityTrackerTest, NoteStableMergesByMax) {
  StabilityTracker t(2);
  t.note_stable(1, 0, 5);
  t.note_stable(1, 0, 3);
  EXPECT_EQ(t.stable_ts(1, 0), 5u);
  t.note_stable(1, 0, 9);
  EXPECT_EQ(t.stable_ts(1, 0), 9u);
}

TEST(StabilityTrackerTest, CoversRequiresEveryEntry) {
  StabilityTracker t(2);
  Ftvc clock(0, 2);        // [(0,1) (0,0)]
  EXPECT_FALSE(t.covers(clock)) << "own ts 1 exceeds stable 0";
  t.note_stable(0, 0, 1);
  EXPECT_TRUE(t.covers(clock));
  clock.tick_send();       // ts 2
  EXPECT_FALSE(t.covers(clock));
}

TEST(StabilityTrackerTest, CoversFailsOnUnknownVersion) {
  StabilityTracker t(2);
  Ftvc clock(0, 2);
  clock.on_restart();  // version 1, ts 0
  EXPECT_FALSE(t.covers(clock));
  t.note_stable(0, 1, 0);
  EXPECT_TRUE(t.covers(clock));
}

TEST(StabilityTrackerTest, GossipRoundTrip) {
  StabilityTracker a(2);
  a.note_stable(0, 0, 7);
  a.note_stable(1, 2, 3);
  StabilityTracker b(2);
  b.merge_encoded(a.encode());
  EXPECT_EQ(b.stable_ts(0, 0), 7u);
  EXPECT_EQ(b.stable_ts(1, 2), 3u);
}

TEST(StabilityTrackerTest, MergeObjects) {
  StabilityTracker a(2), b(2);
  a.note_stable(0, 0, 4);
  b.note_stable(0, 0, 9);
  a.merge(b);
  EXPECT_EQ(a.stable_ts(0, 0), 9u);
}

// --- GC ------------------------------------------------------------------

Checkpoint make_ckpt(std::uint64_t delivered, Ftvc clock) {
  Checkpoint c;
  c.delivered_count = delivered;
  c.clock = std::move(clock);
  return c;
}

Message make_msg(std::uint64_t seq) {
  Message m;
  m.src = 0;
  m.dst = 1;
  m.send_seq = seq;
  return m;
}

TEST(GarbageCollectorTest, NoopWhenNothingCovered) {
  StableStorage storage;
  Ftvc clock(0, 2);
  clock.tick_send();  // ts 2 — beyond the seeded stability
  storage.checkpoints().append(make_ckpt(0, clock));
  const StabilityTracker tracker(2);
  const GcResult result = collect_garbage(storage, tracker);
  EXPECT_EQ(result.checkpoints_reclaimed, 0u);
  EXPECT_EQ(result.log_entries_reclaimed, 0u);
}

TEST(GarbageCollectorTest, ReclaimsBehindCoveredCheckpoint) {
  StableStorage storage;
  Ftvc c0(0, 2);                         // ts 1
  Ftvc c1 = c0;
  c1.tick_send();                        // ts 2
  Ftvc c2 = c1;
  c2.tick_send();                        // ts 3
  storage.checkpoints().append(make_ckpt(0, c0));
  storage.checkpoints().append(make_ckpt(4, c1));
  storage.checkpoints().append(make_ckpt(8, c2));
  for (std::uint64_t i = 0; i < 8; ++i) storage.log().append(make_msg(i));
  storage.log().flush();

  StabilityTracker tracker(2);
  tracker.note_stable(0, 0, 2);  // covers c1 but not c2

  const GcResult result = collect_garbage(storage, tracker);
  EXPECT_EQ(result.checkpoints_reclaimed, 1u);   // c0 goes
  EXPECT_EQ(result.log_entries_reclaimed, 4u);   // entries 0..3
  EXPECT_EQ(storage.checkpoints().at(0).delivered_count, 4u);
  EXPECT_EQ(storage.log().base(), 4u);
  // Idempotent.
  const GcResult again = collect_garbage(storage, tracker);
  EXPECT_EQ(again.checkpoints_reclaimed, 0u);
}

TEST(GarbageCollectorTest, EmptyStorageIsSafe) {
  StableStorage storage;
  const StabilityTracker tracker(2);
  const GcResult result = collect_garbage(storage, tracker);
  EXPECT_EQ(result.checkpoints_reclaimed, 0u);
}

}  // namespace
}  // namespace optrec
