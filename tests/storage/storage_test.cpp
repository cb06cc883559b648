#include <gtest/gtest.h>

#include "src/storage/checkpoint_store.h"
#include "src/storage/message_log.h"
#include "src/storage/stable_storage.h"
#include "src/util/serialization.h"

namespace optrec {
namespace {

Message make_msg(std::uint64_t seq) {
  Message m;
  m.src = 0;
  m.dst = 1;
  m.send_seq = seq;
  m.payload = {static_cast<std::uint8_t>(seq)};
  return m;
}

TEST(MessageLogTest, AppendFlushCrash) {
  MessageLog log;
  log.append(make_msg(0));
  log.append(make_msg(1));
  EXPECT_EQ(log.total_count(), 2u);
  EXPECT_EQ(log.stable_count(), 0u);
  EXPECT_EQ(log.volatile_count(), 2u);

  log.flush();
  EXPECT_EQ(log.stable_count(), 2u);
  log.append(make_msg(2));
  EXPECT_EQ(log.volatile_count(), 1u);

  // Crash: only the unflushed tail dies.
  EXPECT_EQ(log.on_crash(), 1u);
  EXPECT_EQ(log.total_count(), 2u);
  EXPECT_EQ(log.entry(1).send_seq, 1u);
}

TEST(MessageLogTest, FlushIsIdempotent) {
  MessageLog log;
  log.append(make_msg(0));
  log.flush();
  const auto flushes = log.flush_count();
  log.flush();  // nothing new
  EXPECT_EQ(log.flush_count(), flushes);
}

TEST(MessageLogTest, SuffixAndTruncate) {
  MessageLog log;
  for (std::uint64_t i = 0; i < 5; ++i) log.append(make_msg(i));
  log.flush();
  const auto suffix = log.suffix_from(3);
  ASSERT_EQ(suffix.size(), 2u);
  EXPECT_EQ(suffix[0].send_seq, 3u);
  log.truncate_from(3);
  EXPECT_EQ(log.total_count(), 3u);
  EXPECT_EQ(log.stable_count(), 3u);  // stable bound clamped
  EXPECT_THROW(log.entry(3), std::out_of_range);
}

TEST(MessageLogTest, TruncateBeyondEndIsNoop) {
  MessageLog log;
  log.append(make_msg(0));
  log.truncate_from(10);
  EXPECT_EQ(log.total_count(), 1u);
}

TEST(MessageLogTest, ReclaimRespectsStableBoundary) {
  MessageLog log;
  for (std::uint64_t i = 0; i < 6; ++i) log.append(make_msg(i));
  log.flush();
  log.append(make_msg(6));  // volatile
  EXPECT_EQ(log.reclaim_before(4), 4u);
  EXPECT_EQ(log.base(), 4u);
  EXPECT_EQ(log.entry(4).send_seq, 4u);
  EXPECT_THROW(log.entry(3), std::out_of_range);
  // Cannot reclaim past the stable prefix.
  EXPECT_EQ(log.reclaim_before(100), 2u);  // 4,5 are stable; 6 is volatile
  EXPECT_EQ(log.base(), 6u);
}

TEST(MessageLogTest, IndicesSurviveReclaim) {
  MessageLog log;
  for (std::uint64_t i = 0; i < 4; ++i) log.append(make_msg(i));
  log.flush();
  log.reclaim_before(2);
  log.append(make_msg(4));
  EXPECT_EQ(log.total_count(), 5u);
  EXPECT_EQ(log.entry(4).send_seq, 4u);
}

TEST(MessageLogTest, StableBytesCountOnlyTheCurrentStablePrefix) {
  // stable_bytes() is the stable footprint now, not every byte ever
  // flushed: GC reclaim and rollback truncation free what they drop.
  MessageLog log;
  std::size_t bytes[8] = {};
  for (std::uint64_t i = 0; i < 6; ++i) {
    Message m = make_msg(i);
    m.payload.resize(1 + 10 * i);  // distinct sizes per entry
    bytes[i] = m.wire_size();
    log.append(std::move(m));
  }
  log.flush();
  log.append(make_msg(6));  // volatile: never counted
  const auto sum = [&bytes](std::uint64_t from, std::uint64_t to) {
    std::size_t s = 0;
    for (std::uint64_t i = from; i < to; ++i) s += bytes[i];
    return s;
  };
  EXPECT_EQ(log.stable_bytes(), sum(0, 6));
  EXPECT_EQ(log.reclaim_before(2), 2u);
  EXPECT_EQ(log.stable_bytes(), sum(2, 6));
  log.truncate_from(4);  // drops stable 4, 5 and volatile 6
  EXPECT_EQ(log.stable_bytes(), sum(2, 4));
  log.append(make_msg(4));
  EXPECT_EQ(log.on_crash(), 1u);
  EXPECT_EQ(log.stable_bytes(), sum(2, 4));
  EXPECT_EQ(log.reclaim_before(100), 2u);
  EXPECT_EQ(log.stable_bytes(), 0u);

  MessageLog restored;
  std::vector<Message> entries{make_msg(7), make_msg(8)};
  const std::size_t restored_bytes =
      entries[0].wire_size() + entries[1].wire_size();
  restored.restore(std::move(entries), 7);
  EXPECT_EQ(restored.stable_bytes(), restored_bytes);
  restored.truncate_from(8);
  EXPECT_EQ(restored.stable_bytes(), make_msg(7).wire_size());
}

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
  Checkpoint c;
  c.version = 3;
  c.delivered_count = 42;
  c.send_seq = 17;
  c.clock = Ftvc(1, 3);
  c.history = History(1, 3);
  c.app_state = {9, 8, 7};
  c.taken_at = 12345;
  Writer w;
  c.encode(w);
  Reader r(w.buffer());
  const Checkpoint back = Checkpoint::decode(r);
  EXPECT_EQ(back.version, 3u);
  EXPECT_EQ(back.delivered_count, 42u);
  EXPECT_EQ(back.send_seq, 17u);
  EXPECT_EQ(back.clock, c.clock);
  EXPECT_EQ(back.history, c.history);
  EXPECT_EQ(back.app_state, c.app_state);
  EXPECT_EQ(back.taken_at, 12345u);
}

TEST(CheckpointStoreTest, LatestMatchingScansBackwards) {
  CheckpointStore store;
  for (std::uint64_t d : {0, 5, 10, 15}) {
    Checkpoint c;
    c.delivered_count = d;
    store.append(std::move(c));
  }
  const auto idx = store.latest_matching(
      [](const Checkpoint& c) { return c.delivered_count <= 10; });
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(store.at(*idx).delivered_count, 10u);
  EXPECT_FALSE(store
                   .latest_matching([](const Checkpoint& c) {
                     return c.delivered_count > 100;
                   })
                   .has_value());
}

TEST(CheckpointStoreTest, TruncateAfter) {
  CheckpointStore store;
  for (std::uint64_t d : {0, 5, 10}) {
    Checkpoint c;
    c.delivered_count = d;
    store.append(std::move(c));
  }
  store.truncate_after(1);
  EXPECT_EQ(store.count(), 2u);
  EXPECT_EQ(store.latest().delivered_count, 5u);
  store.truncate_after(5);  // beyond end: no-op
  EXPECT_EQ(store.count(), 2u);
}

TEST(CheckpointStoreTest, ReclaimKeepsNewestCovered) {
  CheckpointStore store;
  for (std::uint64_t d : {0, 5, 10, 15}) {
    Checkpoint c;
    c.delivered_count = d;
    store.append(std::move(c));
  }
  EXPECT_EQ(store.reclaim_before_delivered(12), 2u);
  EXPECT_EQ(store.count(), 2u);
  EXPECT_EQ(store.at(0).delivered_count, 10u);
  // Never drops the last checkpoint.
  EXPECT_EQ(store.reclaim_before_delivered(1000), 1u);
  EXPECT_EQ(store.count(), 1u);
}

TEST(StableStorageTest, CrashWipesOnlyVolatile) {
  StableStorage storage;
  storage.log().append(make_msg(0));
  storage.log().flush();
  storage.log().append(make_msg(1));
  Token t;
  t.from = 2;
  t.failed = {0, 3};
  storage.log_token(t);

  EXPECT_EQ(storage.on_crash(), 1u);
  EXPECT_EQ(storage.log().total_count(), 1u);
  ASSERT_EQ(storage.token_log().size(), 1u);  // tokens are synchronous
  EXPECT_EQ(storage.token_log()[0].failed.ts, 3u);
}

TEST(StableStorageTest, StableBytesAccounting) {
  StableStorage storage;
  EXPECT_EQ(storage.stable_bytes(), 0u);
  storage.log().append(make_msg(0));
  EXPECT_EQ(storage.stable_bytes(), 0u) << "volatile data is not stable";
  storage.log().flush();
  EXPECT_GT(storage.stable_bytes(), 0u);
}

}  // namespace
}  // namespace optrec
