// WAL unit tests: framing round trips, group-commit buffering, synchronous
// token hardening (Section 6.3), torn-tail truncation vs committed-floor
// corruption, and compaction equivalence — all on the in-memory
// crash-consistent filesystem.
#include <gtest/gtest.h>

#include "src/durable/mem_fs.h"
#include "src/durable/wal.h"
#include "src/storage/message_log.h"
#include "src/util/serialization.h"

namespace optrec {
namespace {

constexpr char kPath[] = "store/wal-0.log";

Message make_msg(std::uint64_t seq) {
  Message m;
  m.kind = MessageKind::kApp;
  m.src = 1;
  m.dst = 0;
  m.send_seq = seq;
  m.clock = Ftvc(1, 3);
  m.payload = Bytes{0x10, 0x20, static_cast<std::uint8_t>(seq)};
  return m;
}

Token make_tok(std::uint64_t ts) {
  Token t;
  t.from = 2;
  t.failed.ver = 1;
  t.failed.ts = ts;
  t.origin_pid = 2;
  t.origin_ver = 1;
  return t;
}

Bytes enc_msg(const Message& m) {
  Writer w;
  m.encode(w);
  return w.buffer();
}

Bytes enc_tok(const Token& t) {
  Writer w;
  t.encode(w);
  return w.buffer();
}

Bytes wal_bytes(MemFs& fs) {
  const auto raw = fs.read_file(kPath);
  EXPECT_TRUE(raw.has_value());
  return raw.value_or(Bytes{});
}

TEST(DurableWal, RoundTripThroughAllRecordTypes) {
  MemFs fs;
  fs.mkdirs("store");
  WalWriter wal(fs, kPath);
  for (std::uint64_t i = 0; i < 4; ++i) wal.append_message(i, make_msg(i));
  wal.commit();
  wal.append_token(make_tok(7));
  wal.append_reclaim(2);
  wal.append_truncate(3);

  const WalReplay replay = replay_wal(wal_bytes(fs), wal.committed_offset());
  ASSERT_FALSE(replay.corrupt) << replay.corrupt_reason;
  EXPECT_EQ(replay.base, 2u);
  ASSERT_EQ(replay.entries.size(), 1u);  // entries [2,3): m2 survives
  EXPECT_EQ(enc_msg(replay.entries[0]), enc_msg(make_msg(2)));
  ASSERT_EQ(replay.tokens.size(), 1u);
  EXPECT_EQ(enc_tok(replay.tokens[0]), enc_tok(make_tok(7)));
  EXPECT_EQ(replay.torn_bytes, 0u);
}

TEST(DurableWal, AppendsBufferUntilGroupCommit) {
  MemFs fs;
  fs.mkdirs("store");
  WalWriter wal(fs, kPath);
  const std::uint64_t header = wal.committed_offset();

  wal.append_message(0, make_msg(0));
  wal.append_message(1, make_msg(1));
  EXPECT_GT(wal.buffered_bytes(), 0u);
  EXPECT_EQ(wal.committed_offset(), header);  // nothing on disk yet
  EXPECT_EQ(fs.durable_size(kPath), header);

  EXPECT_EQ(wal.commit(), 2u);
  EXPECT_EQ(wal.buffered_bytes(), 0u);
  EXPECT_GT(wal.committed_offset(), header);
  // One group commit = one append + one sync: everything committed is
  // durable, not merely written.
  EXPECT_EQ(fs.durable_size(kPath), wal.committed_offset());

  const WalReplay replay = replay_wal(wal_bytes(fs), wal.committed_offset());
  ASSERT_FALSE(replay.corrupt);
  EXPECT_EQ(replay.entries.size(), 2u);
}

TEST(DurableWal, SynchronousTokenHardensBufferedMessages) {
  MemFs fs;
  fs.mkdirs("store");
  WalWriter wal(fs, kPath);
  wal.append_message(0, make_msg(0));
  wal.append_message(1, make_msg(1));
  wal.append_token(make_tok(3));  // rides the buffered messages to disk

  WalReplay replay = replay_wal(wal_bytes(fs), wal.committed_offset());
  ASSERT_FALSE(replay.corrupt);
  EXPECT_EQ(replay.entries.size(), 2u);  // no holes before the token
  EXPECT_EQ(replay.tokens.size(), 1u);

  // A message appended after the token stays volatile until the next
  // commit; dropping it (simulated crash) must leave the file untouched.
  wal.append_message(2, make_msg(2));
  replay = replay_wal(wal_bytes(fs), wal.committed_offset());
  EXPECT_EQ(replay.entries.size(), 2u);
  wal.drop_buffered();
  EXPECT_EQ(wal.commit(), 0u);
  replay = replay_wal(wal_bytes(fs), wal.committed_offset());
  EXPECT_EQ(replay.entries.size(), 2u);
}

TEST(DurableWal, TruncateRecordBoundsMessagesItRodeWith) {
  MemFs fs;
  fs.mkdirs("store");
  WalWriter wal(fs, kPath);
  wal.append_message(0, make_msg(0));
  wal.commit();
  wal.append_message(1, make_msg(1));
  wal.append_message(2, make_msg(2));
  wal.append_truncate(1);  // hardens m1, m2, then discards them

  const WalReplay replay = replay_wal(wal_bytes(fs), wal.committed_offset());
  ASSERT_FALSE(replay.corrupt) << replay.corrupt_reason;
  EXPECT_EQ(replay.base, 0u);
  ASSERT_EQ(replay.entries.size(), 1u);
  EXPECT_EQ(enc_msg(replay.entries[0]), enc_msg(make_msg(0)));
}

TEST(DurableWal, TornTailIsTruncatedAtFirstBadRecord) {
  MemFs fs;
  fs.mkdirs("store");
  WalWriter wal(fs, kPath);
  wal.append_message(0, make_msg(0));
  wal.append_message(1, make_msg(1));
  wal.commit();
  const std::uint64_t floor = wal.committed_offset();
  wal.append_message(2, make_msg(2));
  wal.commit();

  // Cut the last record in half: a torn group commit past the floor.
  Bytes raw = wal_bytes(fs);
  const std::size_t torn_at = floor + (raw.size() - floor) / 2;
  raw.resize(torn_at);

  const WalReplay replay = replay_wal(raw, floor);
  ASSERT_FALSE(replay.corrupt) << replay.corrupt_reason;
  EXPECT_EQ(replay.entries.size(), 2u);
  EXPECT_EQ(replay.torn_bytes, torn_at - floor);
  EXPECT_EQ(replay.valid_bytes, floor);

  // The same damage BELOW a floor that claims those bytes committed is
  // corruption, not a torn tail.
  const WalReplay strict = replay_wal(raw, raw.size());
  EXPECT_TRUE(strict.corrupt);
}

TEST(DurableWal, BitFlipBelowCommittedFloorIsCorrupt) {
  MemFs fs;
  fs.mkdirs("store");
  WalWriter wal(fs, kPath);
  wal.append_message(0, make_msg(0));
  wal.commit();
  const std::uint64_t floor = wal.committed_offset();
  wal.append_message(1, make_msg(1));
  wal.commit();

  // Flip one payload bit inside the FIRST record (committed below `floor`).
  Bytes raw = wal_bytes(fs);
  raw[kWalMagicBytes + 10] ^= 0x04;
  const WalReplay replay = replay_wal(raw, floor);
  EXPECT_TRUE(replay.corrupt);
  EXPECT_NE(replay.corrupt_reason.find("CRC"), std::string::npos)
      << replay.corrupt_reason;

  // The identical flip in the SECOND record (past the floor) is absorbed
  // as a torn tail: recovery keeps the intact prefix.
  Bytes raw2 = wal_bytes(fs);
  raw2[floor + 10] ^= 0x04;
  const WalReplay tolerant = replay_wal(raw2, floor);
  ASSERT_FALSE(tolerant.corrupt) << tolerant.corrupt_reason;
  EXPECT_EQ(tolerant.entries.size(), 1u);
  EXPECT_GT(tolerant.torn_bytes, 0u);
}

TEST(DurableWal, NonContiguousIndexStreamIsCorrupt) {
  MemFs fs;
  fs.mkdirs("store");
  WalWriter wal(fs, kPath);
  wal.append_message(0, make_msg(0));
  wal.append_message(2, make_msg(2));  // hole: index 1 never written
  wal.commit();

  const WalReplay replay = replay_wal(wal_bytes(fs), wal.committed_offset());
  EXPECT_TRUE(replay.corrupt);
  EXPECT_NE(replay.corrupt_reason.find("non-contiguous"), std::string::npos);
}

TEST(DurableWal, SkipCrcAblationAcceptsFlippedRecords) {
  MemFs fs;
  fs.mkdirs("store");
  WalWriter wal(fs, kPath);
  wal.append_message(0, make_msg(0));
  wal.commit();

  Bytes raw = wal_bytes(fs);
  raw[raw.size() - 1] ^= 0x01;  // corrupt the payload's last byte
  const WalReplay checked = replay_wal(raw, raw.size());
  EXPECT_TRUE(checked.corrupt);

  WalAblations ablations;
  ablations.skip_crc = true;
  const WalReplay unchecked = replay_wal(raw, raw.size(), ablations);
  // The negative control: damage sails through (decode may or may not
  // notice, but the CRC line of defense is provably gone).
  EXPECT_FALSE(unchecked.corrupt && unchecked.corrupt_reason.find("CRC") !=
                                        std::string::npos);
}

TEST(DurableWal, CompactionPreservesReplayedState) {
  MemFs fs;
  fs.mkdirs("store");
  WalWriter wal(fs, kPath);
  for (std::uint64_t i = 0; i < 6; ++i) wal.append_message(i, make_msg(i));
  wal.commit();
  wal.append_token(make_tok(1));
  wal.append_reclaim(3);
  wal.append_truncate(5);

  const WalReplay before = replay_wal(wal_bytes(fs), wal.committed_offset());
  ASSERT_FALSE(before.corrupt);
  MessageLog log;
  log.restore(before.entries, before.base);
  const Bytes compact = encode_wal_image(log, before.tokens);
  EXPECT_LT(compact.size(), wal_bytes(fs).size());

  const WalReplay after = replay_wal(compact, compact.size());
  ASSERT_FALSE(after.corrupt) << after.corrupt_reason;
  EXPECT_EQ(after.base, before.base);
  ASSERT_EQ(after.entries.size(), before.entries.size());
  for (std::size_t i = 0; i < after.entries.size(); ++i) {
    EXPECT_EQ(enc_msg(after.entries[i]), enc_msg(before.entries[i]));
  }
  ASSERT_EQ(after.tokens.size(), before.tokens.size());
  for (std::size_t i = 0; i < after.tokens.size(); ++i) {
    EXPECT_EQ(enc_tok(after.tokens[i]), enc_tok(before.tokens[i]));
  }
}

TEST(DurableWal, ReopenContinuesAtCommittedBoundary) {
  MemFs fs;
  fs.mkdirs("store");
  std::uint64_t committed = 0;
  {
    WalWriter wal(fs, kPath);
    wal.append_message(0, make_msg(0));
    wal.commit();
    committed = wal.committed_offset();
  }
  WalWriter reopened(fs, kPath);
  EXPECT_EQ(reopened.committed_offset(), committed);
  reopened.append_message(1, make_msg(1));
  reopened.commit();

  const WalReplay replay =
      replay_wal(wal_bytes(fs), reopened.committed_offset());
  ASSERT_FALSE(replay.corrupt);
  EXPECT_EQ(replay.entries.size(), 2u);
}

}  // namespace
}  // namespace optrec
