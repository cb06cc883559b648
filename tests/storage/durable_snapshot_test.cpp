// Snapshot/manifest validation and whole-backend recovery: atomic snapshot
// replace, CRC rejection of damaged files, and DurableBackend::recover_into
// rebuilding exactly the durable frontier after a simulated kill -9 —
// including runs that rolled back, reclaimed, and compacted the WAL.
#include <gtest/gtest.h>

#include "src/durable/durable_storage.h"
#include "src/durable/mem_fs.h"
#include "src/durable/snapshot.h"
#include "src/storage/stable_storage.h"
#include "src/util/serialization.h"

namespace optrec {
namespace {

Message make_msg(std::uint64_t seq) {
  Message m;
  m.kind = MessageKind::kApp;
  m.src = 1;
  m.dst = 0;
  m.send_seq = seq;
  m.clock = Ftvc(1, 3);
  m.payload = Bytes{0xaa, static_cast<std::uint8_t>(seq)};
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

Checkpoint make_ckpt(std::uint64_t delivered) {
  Checkpoint c;
  c.version = 0;
  c.delivered_count = delivered;
  c.send_seq = delivered;
  c.clock = Ftvc(0, 3);
  c.history = History(0, 3);
  c.app_state = Bytes{0x01, static_cast<std::uint8_t>(delivered)};
  c.taken_at = static_cast<SimTime>(delivered);
  return c;
}

template <typename T>
Bytes enc(const T& v) {
  Writer w;
  v.encode(w);
  return w.buffer();
}

DurableOptions mem_opts(DurableFs& fs) {
  DurableOptions opts;
  opts.dir = "store";
  opts.fs = &fs;
  return opts;
}

/// Forwards to a MemFs and counts whole-file reads.
class CountingFs final : public DurableFs {
 public:
  explicit CountingFs(MemFs& inner) : inner_(inner) {}
  std::uint64_t reads() const { return reads_; }

  void mkdirs(const std::string& dir) override { inner_.mkdirs(dir); }
  bool exists(const std::string& path) const override {
    return inner_.exists(path);
  }
  std::optional<Bytes> read_file(const std::string& path) const override {
    ++reads_;
    return inner_.read_file(path);
  }
  std::unique_ptr<DurableFile> open_append(const std::string& path) override {
    return inner_.open_append(path);
  }
  void write_file_atomic(const std::string& path, const Bytes& data) override {
    inner_.write_file_atomic(path, data);
  }
  void remove(const std::string& path) override { inner_.remove(path); }
  std::vector<std::string> list_dir(const std::string& dir) const override {
    return inner_.list_dir(dir);
  }

 private:
  MemFs& inner_;
  mutable std::uint64_t reads_ = 0;
};

/// The recovered storage must equal the durable view of `expect`: same log
/// window, same tokens, same checkpoint window, same lifetime counters.
void expect_storage_equal(const StableStorage& restored,
                          const StableStorage& expect) {
  ASSERT_EQ(restored.log().base(), expect.log().base());
  ASSERT_EQ(restored.log().total_count(), expect.log().total_count());
  EXPECT_EQ(restored.log().stable_count(), expect.log().total_count())
      << "everything recovered from disk is stable by construction";
  for (std::uint64_t i = restored.log().base();
       i < restored.log().total_count(); ++i) {
    EXPECT_EQ(enc(restored.log().entry(i)), enc(expect.log().entry(i)))
        << "log entry " << i;
  }
  ASSERT_EQ(restored.token_log().size(), expect.token_log().size());
  for (std::size_t i = 0; i < restored.token_log().size(); ++i) {
    EXPECT_EQ(enc(restored.token_log()[i]), enc(expect.token_log()[i]));
  }
  ASSERT_EQ(restored.checkpoints().count(), expect.checkpoints().count());
  for (std::size_t i = 0; i < restored.checkpoints().count(); ++i) {
    EXPECT_EQ(enc(restored.checkpoints().at(i)),
              enc(expect.checkpoints().at(i)));
  }
  EXPECT_EQ(restored.checkpoints().total_appended(),
            expect.checkpoints().total_appended());
}

TEST(Snapshot, WriteReadRoundTrip) {
  MemFs fs;
  fs.mkdirs("store");
  const Checkpoint ck = make_ckpt(5);
  const std::size_t size = write_snapshot(fs, "store/ckpt-0.bin", ck);
  EXPECT_EQ(fs.file_size("store/ckpt-0.bin"), size);
  // Atomic write: fully durable, no temp file left behind.
  EXPECT_EQ(fs.durable_size("store/ckpt-0.bin"), size);
  EXPECT_EQ(fs.list_dir("store").size(), 1u);

  const auto back = read_snapshot(fs, "store/ckpt-0.bin");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(enc(*back), enc(ck));
}

TEST(Snapshot, DamagedFilesAreRejected) {
  MemFs fs;
  fs.mkdirs("store");
  write_snapshot(fs, "store/ckpt-0.bin", make_ckpt(5));

  // Bit flip anywhere -> CRC failure.
  MemFs flipped;
  flipped.mkdirs("store");
  write_snapshot(flipped, "store/ckpt-0.bin", make_ckpt(5));
  flipped.flip_bit("store/ckpt-0.bin", 12, 3);
  EXPECT_FALSE(read_snapshot(flipped, "store/ckpt-0.bin").has_value());

  // Truncation -> rejected, not partially decoded.
  const auto raw = fs.read_file("store/ckpt-0.bin");
  ASSERT_TRUE(raw.has_value());
  Bytes torn(raw->begin(), raw->begin() + raw->size() / 2);
  fs.write_file_atomic("store/ckpt-torn.bin", torn);
  EXPECT_FALSE(read_snapshot(fs, "store/ckpt-torn.bin").has_value());

  // Missing -> nullopt, no throw.
  EXPECT_FALSE(read_snapshot(fs, "store/absent.bin").has_value());
}

TEST(Manifest, EncodeDecodeRoundTripAndCrc) {
  Manifest m;
  m.wal_gen = 3;
  m.wal_committed = 4096;
  m.next_seq = 9;
  m.checkpoint_seqs = {4, 7, 8};
  const Bytes raw = m.encode();

  const auto back = Manifest::decode(raw);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->wal_gen, 3u);
  EXPECT_EQ(back->wal_committed, 4096u);
  EXPECT_EQ(back->next_seq, 9u);
  EXPECT_EQ(back->checkpoint_seqs, (std::vector<std::uint64_t>{4, 7, 8}));

  for (std::size_t i = 0; i < raw.size(); ++i) {
    Bytes damaged = raw;
    damaged[i] ^= 0x10;
    EXPECT_FALSE(Manifest::decode(damaged).has_value())
        << "flip at byte " << i << " accepted";
  }
  EXPECT_FALSE(Manifest::decode(Bytes{}).has_value());
}

TEST(DurableBackend, KillNineRecoversStablePrefixNotVolatileTail) {
  MemFs fs;
  DurableOptions opts = mem_opts(fs);
  DurableBackend backend(opts);
  backend.start_fresh();

  StableStorage live;
  live.attach_sink(&backend);
  live.checkpoints().append(make_ckpt(0));
  for (std::uint64_t i = 0; i < 5; ++i) live.log().append(make_msg(i));
  live.log().flush();
  live.log_token(make_tok(11));
  // Volatile tail: appended after the last flush/token, never hardened.
  live.log().append(make_msg(5));
  live.log().append(make_msg(6));

  // kill -9: no shutdown hook runs. Recover from the power-cut image.
  auto image = fs.crash_image();
  DurableOptions ropts = mem_opts(*image);
  DurableBackend recoverer(ropts);
  StableStorage restored;
  const RecoveryResult r = recoverer.recover_into(restored);
  ASSERT_TRUE(r.warm);
  ASSERT_FALSE(r.corrupt) << r.corrupt_reason;
  EXPECT_EQ(r.recovered_delivered, 5u);
  EXPECT_EQ(r.replayed_messages, 5u);
  EXPECT_EQ(r.replayed_tokens, 1u);
  EXPECT_EQ(r.recovered_checkpoints, 1u);

  // The durable view to compare against: the live run minus its volatile
  // tail (exactly what MessageLog::on_crash would wipe).
  live.attach_sink(nullptr);
  live.on_crash();
  expect_storage_equal(restored, live);
}

TEST(DurableBackend, SynchronousTokenHardensUnflushedMessages) {
  MemFs fs;
  DurableOptions opts = mem_opts(fs);
  DurableBackend backend(opts);
  backend.start_fresh();

  StableStorage live;
  live.attach_sink(&backend);
  live.checkpoints().append(make_ckpt(0));
  live.log().append(make_msg(0));
  live.log().append(make_msg(1));
  live.log_token(make_tok(3));  // no flush() — the token must harden m0, m1

  auto image = fs.crash_image();
  DurableOptions ropts = mem_opts(*image);
  DurableBackend recoverer(ropts);
  StableStorage restored;
  const RecoveryResult r = recoverer.recover_into(restored);
  ASSERT_TRUE(r.warm);
  EXPECT_EQ(r.recovered_delivered, 2u);
  EXPECT_EQ(restored.log().total_count(), 2u);
  EXPECT_EQ(enc(restored.log().entry(0)), enc(make_msg(0)));
  EXPECT_EQ(enc(restored.log().entry(1)), enc(make_msg(1)));
}

TEST(DurableBackend, RollbackReclaimAndCompactionSurviveKillNine) {
  MemFs fs;
  DurableOptions opts = mem_opts(fs);
  DurableBackend backend(opts);
  backend.start_fresh();

  StableStorage live;
  live.attach_sink(&backend);
  live.checkpoints().append(make_ckpt(0));
  for (std::uint64_t i = 0; i < 8; ++i) live.log().append(make_msg(i));
  live.log().flush();
  live.checkpoints().append(make_ckpt(8));
  live.log_token(make_tok(1));

  // Rollback to the newest checkpoint's cursor... (drops nothing here) then
  // append diverging entries, roll back again, GC up to the checkpoint.
  for (std::uint64_t i = 8; i < 12; ++i) live.log().append(make_msg(100 + i));
  live.log().flush();
  live.checkpoints().truncate_after(1);
  live.log().truncate_from(8);
  live.log().reclaim_before(8);
  live.checkpoints().reclaim_before_delivered(8);
  for (std::uint64_t i = 8; i < 10; ++i) live.log().append(make_msg(i));
  live.log().flush();

  EXPECT_GT(backend.stats().compactions, 0u)
      << "the reclaim starts a new WAL generation";

  auto image = fs.crash_image();
  DurableOptions ropts = mem_opts(*image);
  DurableBackend recoverer(ropts);
  StableStorage restored;
  const RecoveryResult r = recoverer.recover_into(restored);
  ASSERT_TRUE(r.warm);
  ASSERT_FALSE(r.corrupt) << r.corrupt_reason;

  live.attach_sink(nullptr);
  live.on_crash();
  expect_storage_equal(restored, live);
  EXPECT_EQ(restored.log().base(), 8u);
  EXPECT_EQ(restored.log().total_count(), 10u);
}

TEST(DurableBackend, ReclaimWritesTheLiveSuffixWithoutReadingTheWal) {
  MemFs mem;
  CountingFs fs(mem);
  DurableBackend backend(mem_opts(fs));
  backend.start_fresh();

  StableStorage live;
  live.attach_sink(&backend);
  live.checkpoints().append(make_ckpt(0));
  // Well past a megabyte of committed WAL, then GC up to a checkpoint two
  // entries short of the end.
  constexpr std::uint64_t kEntries = 1200;
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    Message m = make_msg(i);
    m.payload.resize(1024, 0x5a);
    live.log().append(std::move(m));
  }
  live.log().flush();
  live.log_token(make_tok(1));
  live.checkpoints().append(make_ckpt(kEntries - 2));
  live.checkpoints().reclaim_before_delivered(kEntries - 2);
  live.log().reclaim_before(kEntries - 2);
  EXPECT_EQ(fs.reads(), 0u) << "a reclaim read the WAL back from disk";

  // The active generation is the live suffix alone: the reclaim marker,
  // the two live entries and the token.
  const auto manifest =
      Manifest::decode(mem.read_file(manifest_path("store")).value());
  ASSERT_TRUE(manifest.has_value());
  const Bytes wal = mem.read_file(wal_path("store", manifest->wal_gen)).value();
  EXPECT_LT(wal.size(), 8u * 1024);
  EXPECT_EQ(manifest->wal_committed, wal.size());
  const WalReplay replay = replay_wal(wal, wal.size());
  ASSERT_FALSE(replay.corrupt) << replay.corrupt_reason;
  EXPECT_EQ(replay.base, kEntries - 2);
  EXPECT_EQ(replay.entries.size(), 2u);
  EXPECT_EQ(replay.tokens.size(), 1u);
  EXPECT_EQ(mem.list_dir("store").size(), 3u)
      << "manifest, the live snapshot and one WAL generation";

  auto image = mem.crash_image();
  DurableBackend recoverer(mem_opts(*image));
  StableStorage restored;
  const RecoveryResult r = recoverer.recover_into(restored);
  ASSERT_TRUE(r.warm);
  ASSERT_FALSE(r.corrupt) << r.corrupt_reason;
  live.attach_sink(nullptr);
  expect_storage_equal(restored, live);
}

TEST(DurableBackend, FreshDirectoryIsAColdStart) {
  MemFs fs;
  DurableOptions opts = mem_opts(fs);
  DurableBackend backend(opts);
  backend.start_fresh();  // no checkpoint -> no manifest yet

  DurableBackend recoverer(mem_opts(fs));
  StableStorage restored;
  const RecoveryResult r = recoverer.recover_into(restored);
  EXPECT_FALSE(r.warm);
  EXPECT_FALSE(r.corrupt);
}

TEST(DurableBackend, CorruptCommittedWalRefusesWarmRecovery) {
  MemFs fs;
  DurableOptions opts = mem_opts(fs);
  DurableBackend backend(opts);
  backend.start_fresh();

  StableStorage live;
  live.attach_sink(&backend);
  live.checkpoints().append(make_ckpt(0));
  for (std::uint64_t i = 0; i < 3; ++i) live.log().append(make_msg(i));
  live.log().flush();
  live.checkpoints().append(make_ckpt(3));  // manifest now floors the WAL

  auto image = fs.crash_image();
  const auto manifest = Manifest::decode(
      image->read_file(manifest_path("store")).value());
  ASSERT_TRUE(manifest.has_value());
  ASSERT_GT(manifest->wal_committed, kWalMagicBytes);
  image->flip_bit(wal_path("store", manifest->wal_gen),
                  manifest->wal_committed - 4, 2);

  DurableBackend recoverer(mem_opts(*image));
  StableStorage restored;
  const RecoveryResult r = recoverer.recover_into(restored);
  EXPECT_TRUE(r.corrupt);
  EXPECT_FALSE(r.warm);
  EXPECT_FALSE(r.corrupt_reason.empty());
}

TEST(DurableBackend, MissingSnapshotNamedByManifestRefusesWarmRecovery) {
  MemFs fs;
  DurableOptions opts = mem_opts(fs);
  DurableBackend backend(opts);
  backend.start_fresh();

  StableStorage live;
  live.attach_sink(&backend);
  live.checkpoints().append(make_ckpt(0));

  auto image = fs.crash_image();
  image->remove(checkpoint_path("store", 0));
  DurableBackend recoverer(mem_opts(*image));
  StableStorage restored;
  const RecoveryResult r = recoverer.recover_into(restored);
  EXPECT_TRUE(r.corrupt);
  EXPECT_FALSE(r.warm);
}

TEST(DurableBackend, RecoveryDeletesStrayFilesAndStaysReusable) {
  MemFs fs;
  DurableOptions opts = mem_opts(fs);
  DurableBackend backend(opts);
  backend.start_fresh();

  StableStorage live;
  live.attach_sink(&backend);
  live.checkpoints().append(make_ckpt(0));
  live.log().append(make_msg(0));
  live.log().flush();

  auto image = fs.crash_image();
  image->write_file_atomic("store/ckpt-99.bin", Bytes{1, 2, 3});
  image->write_file_atomic("store/wal-7.log", Bytes{4, 5, 6});

  DurableBackend recoverer(mem_opts(*image));
  StableStorage restored;
  const RecoveryResult r = recoverer.recover_into(restored);
  ASSERT_TRUE(r.warm);
  EXPECT_FALSE(image->exists("store/ckpt-99.bin"));
  EXPECT_FALSE(image->exists("store/wal-7.log"));

  // The backend must be writable right after recovery: keep appending and
  // recover again from the same tree.
  restored.attach_sink(&recoverer);
  restored.log().append(make_msg(1));
  restored.log().flush();
  restored.checkpoints().append(make_ckpt(2));

  DurableBackend again(mem_opts(*image));
  StableStorage second;
  const RecoveryResult r2 = again.recover_into(second);
  ASSERT_TRUE(r2.warm);
  EXPECT_EQ(r2.recovered_delivered, 2u);
  EXPECT_EQ(second.checkpoints().count(), 2u);
}

}  // namespace
}  // namespace optrec
