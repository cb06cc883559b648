// Wire codec property tests: encode→decode identity for messages, FTVCs,
// histories, and tokens (randomized sweeps), frame-type safety, byte
// accounting, the delta codec over a FIFO stream, and the paper's O(n)
// growth claim measured on actual serialized piggybacks.
#include "src/wire/wire_codec.h"

#include <gtest/gtest.h>

#include "src/history/history.h"
#include "src/scale/delta_codec.h"
#include "src/util/rng.h"
#include "src/util/serialization.h"

namespace optrec {
namespace {

Ftvc random_clock(Rng& rng, std::size_t n) {
  std::vector<FtvcEntry> entries(n);
  for (auto& e : entries) {
    e.ver = static_cast<Version>(rng.uniform(4));
    if (rng.chance(0.05)) e.ver = 0xffffffffu - static_cast<Version>(rng.uniform(2));
    e.ts = rng.uniform(1000);
    if (rng.chance(0.05)) e.ts = 0xffffffffffffffffull - rng.uniform(2);
  }
  return Ftvc::with_entries(static_cast<ProcessId>(rng.uniform(n)),
                            std::move(entries));
}

Message random_message(Rng& rng, std::size_t n) {
  Message m;
  m.id = rng.next_u64();
  m.kind = rng.chance(0.2) ? MessageKind::kControl : MessageKind::kApp;
  m.src = static_cast<ProcessId>(rng.uniform(n));
  do {
    m.dst = static_cast<ProcessId>(rng.uniform(n));
  } while (m.dst == m.src);
  m.src_version = static_cast<Version>(rng.uniform(5));
  m.send_seq = rng.uniform(100000);
  if (rng.chance(0.8)) m.clock = random_clock(rng, n);
  m.payload.resize(rng.uniform(64));
  for (auto& b : m.payload) b = static_cast<std::uint8_t>(rng.uniform(256));
  m.retransmission = rng.chance(0.1);
  m.sender_state = rng.next_u64();
  return m;
}

Token random_token(Rng& rng, std::size_t n) {
  Token t;
  t.from = static_cast<ProcessId>(rng.uniform(n));
  t.failed.ver = static_cast<Version>(rng.uniform(6));
  t.failed.ts = rng.uniform(100000);
  if (rng.chance(0.5)) t.restored_clock = random_clock(rng, n);
  t.origin_pid = static_cast<ProcessId>(rng.uniform(n));
  t.origin_ver = static_cast<Version>(rng.uniform(6));
  return t;
}

void expect_same(const Message& a, const Message& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.src_version, b.src_version);
  EXPECT_EQ(a.send_seq, b.send_seq);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.clock.owner(), b.clock.owner());
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.retransmission, b.retransmission);
  EXPECT_EQ(a.sender_state, b.sender_state);
}

void expect_same(const Token& a, const Token& b) {
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.restored_clock.has_value(), b.restored_clock.has_value());
  if (a.restored_clock && b.restored_clock) {
    EXPECT_EQ(*a.restored_clock, *b.restored_clock);
    EXPECT_EQ(a.restored_clock->owner(), b.restored_clock->owner());
  }
  EXPECT_EQ(a.origin_pid, b.origin_pid);
  EXPECT_EQ(a.origin_ver, b.origin_ver);
}

TEST(WireCodecTest, MessageFrameRoundTripProperty) {
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    const Message m = random_message(rng, 2 + rng.uniform(15));
    const Frame f = decode_frame(encode_message_frame(m));
    ASSERT_EQ(f.type, FrameType::kMessage) << "iteration " << i;
    expect_same(m, f.message);
  }
}

TEST(WireCodecTest, TokenFrameRoundTripProperty) {
  Rng rng(4048);
  for (int i = 0; i < 500; ++i) {
    const Token t = random_token(rng, 2 + rng.uniform(15));
    const Frame f = decode_frame(encode_token_frame(t));
    ASSERT_EQ(f.type, FrameType::kToken) << "iteration " << i;
    expect_same(t, f.token);
  }
}

TEST(WireCodecTest, FtvcRoundTripProperty) {
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const Ftvc c = random_clock(rng, 1 + rng.uniform(20));
    Writer w;
    c.encode(w);
    Reader r(w.buffer());
    const Ftvc out = Ftvc::decode(r);
    ASSERT_EQ(out, c) << "iteration " << i;
    ASSERT_EQ(out.owner(), c.owner());
    ASSERT_TRUE(r.at_end());
  }
}

TEST(WireCodecTest, HistoryRoundTripProperty) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const std::size_t n = 2 + rng.uniform(8);
    History h(static_cast<ProcessId>(rng.uniform(n)), n);
    for (int step = rng.uniform(30); step-- > 0;) {
      if (rng.chance(0.3)) {
        h.observe_token(static_cast<ProcessId>(rng.uniform(n)),
                        {static_cast<Version>(rng.uniform(4)),
                         rng.uniform(50)});
      } else {
        h.observe_message_clock(random_clock(rng, n));
      }
    }
    Writer w;
    h.encode(w);
    Reader r(w.buffer());
    const History out = History::decode(r);
    ASSERT_EQ(out, h) << "iteration " << i;
    ASSERT_TRUE(r.at_end());
  }
}

TEST(WireCodecTest, EmptyHistoryRoundTrips) {
  const History h;  // default: no owner, no processes
  Writer w;
  h.encode(w);
  Reader r(w.buffer());
  EXPECT_EQ(History::decode(r), h);
  EXPECT_TRUE(r.at_end());
}

TEST(WireCodecTest, MalformedFramesThrow) {
  EXPECT_THROW(decode_frame(Bytes{}), DecodeError);
  EXPECT_THROW(decode_frame(Bytes{0x7f}), DecodeError);  // unknown tag
  Bytes good = encode_message_frame(Message{});
  good.push_back(0);  // trailing garbage
  EXPECT_THROW(decode_frame(good), DecodeError);
  Bytes truncated = encode_token_frame(Token{});
  truncated.pop_back();
  EXPECT_THROW(decode_frame(truncated), DecodeError);
}

TEST(WireCodecTest, WireBytesMatchFrameMinusTelemetry) {
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    const Message m = random_message(rng, 8);
    // Telemetry (sender_state + id) must not count as wire bytes.
    const std::size_t frame = encode_message_frame(m).size();
    EXPECT_EQ(message_wire_bytes(m),
              frame - varint_size(m.sender_state) - varint_size(m.id));
    EXPECT_EQ(message_piggyback_bytes(m),
              message_wire_bytes(m) - m.payload.size());
    const Token t = random_token(rng, 8);
    EXPECT_EQ(token_wire_bytes(t),
              encode_token_frame(t).size() - varint_size(t.origin_pid) -
                  varint_size(t.origin_ver));
  }
}

TEST(WireCodecTest, PiggybackGrowsLinearlyWithProcessCount) {
  // The paper's headline overhead claim: FTVC + history piggyback is O(n).
  // Measure actual serialized bytes at n and 8n; linear growth means the
  // ratio is ~8, and super-linear (O(n^2)) would push it toward 64.
  const auto piggyback_at = [](std::size_t n) {
    Message m;
    m.src = 0;
    m.dst = 1;
    m.clock = Ftvc(0, n);
    m.payload = Bytes(32, 0xab);
    History h(0, n);
    Writer w;
    h.encode(w);
    return message_piggyback_bytes(m) + w.size();
  };
  const std::size_t at8 = piggyback_at(8);
  const std::size_t at64 = piggyback_at(64);
  EXPECT_GE(at64, 6 * at8 - 16) << "should grow ~linearly";
  EXPECT_LE(at64, 10 * at8 + 16) << "must not grow quadratically";
}

TEST(WireCodecTest, DiffVariantRoundTripsOverFifoStream) {
  // The delta codec over a per-(src,dst) FIFO stream: every frame must
  // reconstruct the exact message, and steady-state frames must be smaller
  // than stateless ones.
  const std::size_t n = 6;
  Rng rng(31337);
  scale::DeltaWireEncoder enc(n, /*epoch=*/1, scale::DeltaMode::kFifo);
  scale::DeltaWireDecoder dec(n);
  Ftvc clock(0, n);
  std::size_t diff_total = 0, full_total = 0;
  for (int i = 0; i < 200; ++i) {
    Message m;
    m.id = static_cast<MsgId>(i + 1);
    m.src = 0;
    m.dst = 3;
    m.send_seq = static_cast<std::uint64_t>(i);
    m.clock = clock;
    m.payload = Bytes(16, static_cast<std::uint8_t>(i));
    m.sender_state = rng.next_u64();
    const Bytes wire = enc.encode_for(m.dst, m);
    diff_total += wire.size();
    full_total += encode_message_frame(m).size();
    expect_same(m, dec.decode_from(m.src, wire));
    clock.tick_send();
    if (rng.chance(0.1)) {
      // A rollback/restart boundary: both sides resynchronize.
      enc.reset(3);
      dec.reset(0);
      clock.on_restart();
    }
  }
  EXPECT_LT(diff_total, full_total)
      << "differential clocks must beat full clocks on FIFO streams";
}

TEST(WireCodecTest, DiffDecoderRejectsStatelessFrames) {
  scale::DeltaWireDecoder dec(4);
  Message m;
  m.src = 0;
  m.dst = 1;
  EXPECT_THROW(dec.decode_from(m.src, encode_message_frame(m)), DecodeError);
}

}  // namespace
}  // namespace optrec
