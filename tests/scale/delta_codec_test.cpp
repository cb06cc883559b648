// Unit tests for the fleet-scale delta piggyback codec: byte-exact
// round-trips, diff-vs-full byte savings, the flat fallback, drop/dup/
// reorder outcomes (exact or resync, never a wrong clock), and the
// respawn/reused-seq hazards the epoch+checksum binding exists to survive.
#include "src/scale/delta_codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/util/rng.h"
#include "src/wire/wire_codec.h"

namespace optrec::scale {
namespace {

Message make_msg(ProcessId src, ProcessId dst, Ftvc clock,
                 std::uint64_t send_seq = 1) {
  Message m;
  m.kind = MessageKind::kApp;
  m.src = src;
  m.dst = dst;
  m.src_version = 3;
  m.send_seq = send_seq;
  m.clock = std::move(clock);
  m.payload = Bytes{0xde, 0xad, 0xbe, 0xef};
  m.sender_state = 99;
  m.id = 1000 + send_seq;
  return m;
}

/// A clock width at which a one-entry delta is well below the flat clock,
/// so the encoder emits stateful frames rather than its flat fallback.
constexpr std::size_t kWide = 16;

Ftvc ticked_clock(ProcessId owner, std::size_t n, std::uint64_t ticks) {
  Ftvc clock(owner, n);
  for (std::uint64_t i = 0; i < ticks; ++i) clock.tick_send();
  return clock;
}

/// Byte-exact fidelity: the decoded message's stateless encoding matches the
/// original's (the acceptance bar for every frame in every test below).
void expect_exact(const Message& decoded, const Message& original) {
  EXPECT_EQ(encode_message_frame(decoded), encode_message_frame(original));
}

bool is_stateful(const Bytes& wire) {
  return !wire.empty() && wire[0] == kDeltaMessageTag;
}

TEST(DeltaCodecTest, FirstFrameIsFullAndRoundTripsByteExact) {
  DeltaWireEncoder enc(4, /*epoch=*/1);
  DeltaWireDecoder dec(4);
  const Message msg = make_msg(0, 1, ticked_clock(0, 4, 3));
  const Bytes wire = enc.encode_for(1, msg);
  EXPECT_TRUE(is_stateful(wire));  // a base must exist before any delta
  expect_exact(dec.decode_from(0, wire), msg);
  EXPECT_EQ(enc.stats().frames, 1u);
  EXPECT_EQ(enc.stats().full_frames, 1u);
}

TEST(DeltaCodecTest, FifoDeltaIsMuchSmallerThanFlatAtLargeN) {
  constexpr std::size_t kN = 256;
  DeltaWireEncoder enc(kN, 1);
  DeltaWireDecoder dec(kN);
  Ftvc clock(7, kN);
  clock.tick_send();
  Message m1 = make_msg(7, 1, clock, 1);
  expect_exact(dec.decode_from(7, enc.encode_for(1, m1)), m1);

  clock.tick_send();  // one entry changed since the last frame
  Message m2 = make_msg(7, 1, clock, 2);
  const Bytes wire = enc.encode_for(1, m2);
  expect_exact(dec.decode_from(7, wire), m2);
  const Bytes flat = encode_message_frame(m2);
  // Flat carries 256 (ver, ts) entries; the delta carries one.
  EXPECT_LT(wire.size() * 10, flat.size());
  EXPECT_EQ(enc.stats().full_frames, 1u);
}

TEST(DeltaCodecTest, EmptyClockEncodesStatelessWithNoAck) {
  DeltaWireEncoder enc(2, 1);
  DeltaWireDecoder dec(2);
  const Message msg = make_msg(0, 1, Ftvc{});
  const Bytes wire = enc.encode_for(1, msg);
  EXPECT_EQ(wire, encode_message_frame(msg));  // nothing to compress
  expect_exact(dec.decode_from(0, wire), msg);
  EXPECT_EQ(enc.stats().frames, 0u);
}

// Drops, duplicates and reorders on a FIFO stream: every delivery either
// decodes byte-exact or throws DeltaResyncRequired — never a wrong clock.
// The designed recovery resets both ends; the next frame goes full.

/// Decode `wire` and check it is exactly `msg`; false on a resync.
bool exact_or_resync(DeltaWireDecoder& dec, const Bytes& wire,
                     const Message& msg) {
  try {
    expect_exact(dec.decode_from(0, wire), msg);
    return true;
  } catch (const DeltaResyncRequired&) {
    return false;
  }
}

TEST(DeltaCodecTest, AckedModeGoesFullUntilAReceiptArrives) {
  // The stream's full frame is dropped: every delta after it asks for a
  // resync instead of guessing a base, and once both ends reset the
  // stream goes full again.
  DeltaWireEncoder enc(2, 1);
  DeltaWireDecoder dec(2);
  Ftvc clock(0, kWide);
  clock.tick_send();
  enc.encode_for(1, make_msg(0, 1, clock, 1));  // full frame, lost
  for (std::uint64_t i = 2; i <= 3; ++i) {
    clock.tick_send();
    const Message m = make_msg(0, 1, clock, i);
    EXPECT_FALSE(exact_or_resync(dec, enc.encode_for(1, m), m));
  }
  enc.reset(1);
  dec.reset(0);
  clock.tick_send();
  const Message m4 = make_msg(0, 1, clock, 4);
  EXPECT_TRUE(exact_or_resync(dec, enc.encode_for(1, m4), m4));
  EXPECT_EQ(enc.stats().full_frames, 2u);
}

TEST(DeltaCodecTest, AckedDeltaSurvivesDropsOfInFlightFrames) {
  DeltaWireEncoder enc(2, 1);
  DeltaWireDecoder dec(2);
  Ftvc clock(0, kWide);
  clock.tick_send();
  const Message m1 = make_msg(0, 1, clock, 1);
  EXPECT_TRUE(exact_or_resync(dec, enc.encode_for(1, m1), m1));

  // Frames 2..4 are deltas, each against its predecessor; 2 and 3 are lost.
  Bytes last;
  Message last_msg;
  for (std::uint64_t i = 2; i <= 4; ++i) {
    clock.tick_send();
    last_msg = make_msg(0, 1, clock, i);
    last = enc.encode_for(1, last_msg);
  }
  // Frame 4 names frame 3 as its base, which never arrived.
  EXPECT_FALSE(exact_or_resync(dec, last, last_msg));
  enc.reset(1);
  dec.reset(0);
  clock.tick_send();
  const Message m5 = make_msg(0, 1, clock, 5);
  EXPECT_TRUE(exact_or_resync(dec, enc.encode_for(1, m5), m5));
}

TEST(DeltaCodecTest, AckedDeltasDecodeOutOfOrderAndDuplicated) {
  DeltaWireEncoder enc(2, 1);
  DeltaWireDecoder dec(2);
  Ftvc clock(0, kWide);
  clock.tick_send();
  const Message m1 = make_msg(0, 1, clock, 1);
  EXPECT_TRUE(exact_or_resync(dec, enc.encode_for(1, m1), m1));

  clock.tick_send();
  const Message m2 = make_msg(0, 1, clock, 2);
  const Bytes w2 = enc.encode_for(1, m2);
  clock.tick_send();
  const Message m3 = make_msg(0, 1, clock, 3);
  const Bytes w3 = enc.encode_for(1, m3);

  EXPECT_FALSE(exact_or_resync(dec, w3, m3));  // overtook its base
  // A refused frame leaves the stream untouched, so the late base still
  // decodes and the reordered frame decodes after it.
  EXPECT_TRUE(exact_or_resync(dec, w2, m2));
  EXPECT_TRUE(exact_or_resync(dec, w3, m3));
  // Duplicates name bases the stream has moved past.
  EXPECT_FALSE(exact_or_resync(dec, w2, m2));
  EXPECT_FALSE(exact_or_resync(dec, w3, m3));
}

TEST(DeltaCodecTest, WindowOverrunFallsBackToFullFrames) {
  // A delta that would not be smaller than the flat frame goes out as the
  // flat frame, and the next delta still decodes against the unchanged
  // base.
  DeltaWireEncoder enc(2, 1);
  DeltaWireDecoder dec(2);
  Ftvc clock(0, kWide);
  clock.tick_send();
  const Message m1 = make_msg(0, 1, clock, 1);
  expect_exact(dec.decode_from(0, enc.encode_for(1, m1)), m1);

  std::vector<FtvcEntry> churned(kWide);  // every entry differs from base
  for (std::size_t j = 0; j < kWide; ++j) churned[j] = FtvcEntry{1, 1000 + j};
  const Message m2 = make_msg(0, 1, Ftvc::with_entries(0, churned), 2);
  const Bytes w2 = enc.encode_for(1, m2);
  EXPECT_EQ(w2, encode_message_frame(m2));
  expect_exact(dec.decode_from(0, w2), m2);

  clock.tick_send();  // one entry away from the base, frame 1
  const Message m3 = make_msg(0, 1, clock, 3);
  const Bytes w3 = enc.encode_for(1, m3);
  EXPECT_TRUE(is_stateful(w3));
  EXPECT_LT(w3.size(), encode_message_frame(m3).size());
  expect_exact(dec.decode_from(0, w3), m3);
  EXPECT_EQ(enc.stats().frames, 2u);  // frames 1 and 3
  EXPECT_EQ(enc.stats().full_frames, 1u);
}

TEST(DeltaCodecTest, ResetForcesNextFrameFull) {
  DeltaWireEncoder enc(2, 1);
  DeltaWireDecoder dec(2);
  Ftvc clock(0, 4);
  clock.tick_send();
  Message m1 = make_msg(0, 1, clock, 1);
  expect_exact(dec.decode_from(0, enc.encode_for(1, m1)), m1);
  enc.reset(1);
  dec.reset(0);
  clock.tick_send();
  Message m2 = make_msg(0, 1, clock, 2);
  expect_exact(dec.decode_from(0, enc.encode_for(1, m2)), m2);
  EXPECT_EQ(enc.stats().full_frames, 2u);
  EXPECT_EQ(enc.stats().resets, 1u);
}

// The satellite regression at codec level: a SIGKILL+respawn sender that
// reuses sequence numbers under a NEW epoch hard-resets the receiver stream
// on its first full frame; everything after decodes byte-exact.
TEST(DeltaCodecTest, RebirthWithReusedSeqsDecodesByteExact) {
  DeltaWireEncoder enc(2, /*epoch=*/1);
  DeltaWireDecoder dec(2);
  Ftvc clock(0, kWide);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    clock.tick_send();
    Message m = make_msg(0, 1, clock, i);
    expect_exact(dec.decode_from(0, enc.encode_for(1, m)), m);
  }

  // Respawn: fresh encoder, NEW epoch, seq counter restarts at 1 — the same
  // stream seqs the decoder has already seen under epoch 1.
  DeltaWireEncoder respawned(2, /*epoch=*/2);
  Ftvc reborn(0, kWide);  // restored state: different timestamps entirely
  reborn.tick_send();
  Message r1 = make_msg(0, 1, reborn, 1);
  expect_exact(dec.decode_from(0, respawned.encode_for(1, r1)), r1);
  reborn.tick_send();
  Message r2 = make_msg(0, 1, reborn, 2);  // delta against the NEW seq-1 base
  const Bytes w2 = respawned.encode_for(1, r2);
  EXPECT_TRUE(is_stateful(w2));
  expect_exact(dec.decode_from(0, w2), r2);
  EXPECT_EQ(respawned.stats().frames, 2u);
  EXPECT_EQ(respawned.stats().full_frames, 1u);
}

// The hazard itself: a respawned sender that reuses seqs WITHOUT an epoch
// bump can at worst force a resync — the base checksum catches the aliased
// base before a wrong clock is ever produced.
TEST(DeltaCodecTest, AliasedBaseFailsChecksumInsteadOfCorrupting) {
  DeltaWireEncoder enc(2, 1);
  DeltaWireDecoder dec(2);
  Ftvc clock(0, kWide);
  clock.tick_send();
  Message m1 = make_msg(0, 1, clock, 1);
  expect_exact(dec.decode_from(0, enc.encode_for(1, m1)), m1);

  // "Respawn" that wrongly keeps epoch 1: its seq 1 carries different
  // entries than the decoder's cached seq 1...
  DeltaWireEncoder impostor(2, /*epoch=*/1);
  Ftvc other(0, kWide);
  other.tick_send();
  other.tick_send();
  other.tick_send();
  Message i1 = make_msg(0, 1, other, 1);
  impostor.encode_for(1, i1);  // full frame, LOST on the wire
  other.tick_send();
  Message i2 = make_msg(0, 1, other, 2);
  const Bytes aliased = impostor.encode_for(1, i2);  // delta vs its seq 1
  // ...so the delta names a cached base with the right seq but the wrong
  // contents. The checksum refuses it.
  EXPECT_THROW(dec.decode_from(0, aliased), DeltaResyncRequired);

  // Designed recovery: both sides reset, the re-sent frame goes full.
  impostor.reset(1);
  dec.reset(0);
  expect_exact(dec.decode_from(0, impostor.encode_for(1, i2)), i2);
}

TEST(DeltaCodecTest, DeltaBeforeFullFrameRequestsResync) {
  DeltaWireEncoder enc(2, 1);
  DeltaWireDecoder dec(2);
  Ftvc clock(0, kWide);
  clock.tick_send();
  Message m1 = make_msg(0, 1, clock, 1);
  enc.encode_for(1, m1);  // full frame lost
  clock.tick_send();
  Message m2 = make_msg(0, 1, clock, 2);
  EXPECT_THROW(dec.decode_from(0, enc.encode_for(1, m2)),
               DeltaResyncRequired);
}

TEST(DeltaCodecTest, StatsAccountDeltaVsFlatBytes) {
  DeltaWireEncoder enc(2, 1);
  Ftvc clock(0, 64);
  Bytes total;
  std::uint64_t emitted = 0;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    clock.tick_send();
    emitted += enc.encode_for(1, make_msg(0, 1, clock, i)).size();
  }
  EXPECT_EQ(enc.stats().frames, 4u);
  EXPECT_EQ(enc.stats().delta_bytes, emitted);
  EXPECT_GT(enc.stats().flat_bytes, enc.stats().delta_bytes);
}

TEST(DeltaCodecTest, ChecksumDependsOnEpochSeqAndEntries) {
  const std::vector<FtvcEntry> a{{1, 2}, {3, 4}};
  const std::vector<FtvcEntry> b{{1, 2}, {3, 5}};
  EXPECT_NE(delta_base_checksum(1, 1, a), delta_base_checksum(2, 1, a));
  EXPECT_NE(delta_base_checksum(1, 1, a), delta_base_checksum(1, 2, a));
  EXPECT_NE(delta_base_checksum(1, 1, a), delta_base_checksum(1, 1, b));
}

// ---- The per-destination FIFO diff contract (paper §7), held by kFifo ----

/// Send `clock` from src 0 to `dst` over a kFifo stream pair; the decoded
/// message must match byte-exact. Returns the emitted frame.
Bytes fifo_send(DeltaWireEncoder& enc, DeltaWireDecoder& dec, ProcessId dst,
                const Ftvc& clock) {
  const Message msg = make_msg(0, dst, clock);
  Bytes wire = enc.encode_for(dst, msg);
  const Message out = dec.decode_from(0, wire);
  expect_exact(out, msg);
  EXPECT_EQ(out.clock.owner(), clock.owner());
  return wire;
}

TEST(DiffCodecTest, FirstMessageCarriesFullClock) {
  DeltaWireEncoder enc(3, 1);
  DeltaWireDecoder dec(3);
  fifo_send(enc, dec, 1, Ftvc(0, 3));
  EXPECT_EQ(enc.stats().full_frames, 1u);
}

TEST(DiffCodecTest, UnchangedClockCostsAlmostNothing) {
  DeltaWireEncoder enc(2, 1);
  DeltaWireDecoder dec(2);
  const Ftvc clock = ticked_clock(0, 64, 5);
  const Bytes full = fifo_send(enc, dec, 1, clock);
  const Bytes diff = fifo_send(enc, dec, 1, clock);  // nothing changed
  EXPECT_LT(diff.size() * 4, full.size());
}

TEST(DiffCodecTest, DiffAppliesOnTopOfBase) {
  DeltaWireEncoder enc(4, 1);
  DeltaWireDecoder dec(4);
  Ftvc clock(2, kWide);
  fifo_send(enc, dec, 0, clock);
  clock.tick_send();
  clock.tick_send();
  fifo_send(enc, dec, 0, clock);
  EXPECT_EQ(enc.stats().frames, 2u);
  EXPECT_EQ(enc.stats().full_frames, 1u);
}

TEST(DiffCodecTest, PerDestinationCachesAreIndependent) {
  DeltaWireEncoder enc(3, 1);
  DeltaWireDecoder dec_b(3), dec_c(3);
  Ftvc clock(0, kWide);
  fifo_send(enc, dec_b, 1, clock);  // warm destination 1 only
  clock.tick_send();
  fifo_send(enc, dec_c, 2, clock);  // destination 2's first frame is full
  EXPECT_EQ(enc.stats().full_frames, 2u);
  fifo_send(enc, dec_b, 1, clock);  // destination 1 still diffs
  EXPECT_EQ(enc.stats().frames, 3u);
  EXPECT_EQ(enc.stats().full_frames, 2u);
}

TEST(DiffCodecTest, InvalidateForcesFullClock) {
  DeltaWireEncoder enc(3, 1);
  DeltaWireDecoder dec(3);
  Ftvc clock(0, 3);
  fifo_send(enc, dec, 1, clock);
  enc.reset(1);  // e.g. the sender rolled back
  dec.reset(0);  // receiver learned of the incarnation change
  clock.on_restart();
  fifo_send(enc, dec, 1, clock);
  EXPECT_EQ(enc.stats().full_frames, 2u);
}

TEST(DiffCodecTest, DiffWithoutBaseThrows) {
  DeltaWireEncoder enc(3, 1);
  DeltaWireDecoder dec(3);
  Ftvc clock(0, kWide);
  enc.encode_for(1, make_msg(0, 1, clock));  // warms the ENCODER only
  clock.tick_send();
  EXPECT_THROW(dec.decode_from(0, enc.encode_for(1, make_msg(0, 1, clock))),
               DecodeError);
}

TEST(DiffCodecTest, VersionChangesTravelInDiffs) {
  DeltaWireEncoder enc(3, 1);
  DeltaWireDecoder dec(3);
  Ftvc clock(1, kWide);
  fifo_send(enc, dec, 0, clock);
  clock.on_restart();  // a version bump is just a changed entry
  fifo_send(enc, dec, 0, clock);
  EXPECT_EQ(enc.stats().frames, 2u);
  EXPECT_EQ(enc.stats().full_frames, 1u);
}

TEST(DiffCodecTest, EmptyClockRoundTripsFullAndDiff) {
  // Baseline messages with no piggyback carry a size-0 clock; both frames
  // travel stateless and round-trip exactly.
  DeltaWireEncoder enc(3, 1);
  DeltaWireDecoder dec(3);
  fifo_send(enc, dec, 1, Ftvc{});
  fifo_send(enc, dec, 1, Ftvc{});
  EXPECT_EQ(enc.stats().frames, 0u);
}

TEST(DiffCodecTest, SingleEntryClockRoundTrips) {
  DeltaWireEncoder enc(1, 1);
  DeltaWireDecoder dec(1);
  Ftvc clock(0, 1);
  fifo_send(enc, dec, 0, clock);
  clock.tick_send();
  fifo_send(enc, dec, 0, clock);
}

TEST(DiffCodecTest, VersionCountersNearUint32MaxRoundTrip) {
  DeltaWireEncoder enc(2, 1);
  DeltaWireDecoder dec(2);
  const std::uint32_t big = 0xffffffffu;
  const std::uint64_t max_ts = 0xffffffffffffffffull;
  fifo_send(enc, dec, 1, Ftvc::with_entries(0, {{big, 7}, {big - 1, max_ts}}));
  // And across a delta frame: bump only entry 1's version to the max.
  fifo_send(enc, dec, 1, Ftvc::with_entries(0, {{big, 7}, {big, 0}}));
  EXPECT_EQ(enc.stats().full_frames, 1u);
}

TEST(DiffCodecTest, OwnerSurvivesDiffFrames) {
  // A clock whose owner is not the transport-level sender keeps its owner
  // on both frame kinds (fifo_send checks it).
  DeltaWireEncoder enc(3, 1);
  DeltaWireDecoder dec(3);
  Ftvc clock(2, kWide);
  fifo_send(enc, dec, 1, clock);
  clock.tick_send();
  fifo_send(enc, dec, 1, clock);
  EXPECT_EQ(enc.stats().frames, 2u);
}

TEST(DiffCodecTest, RandomizedRoundTripAndSavings) {
  Rng rng(99);
  const std::size_t n = 6;
  DeltaWireEncoder enc(n, 1);
  std::vector<DeltaWireDecoder> decoders(n, DeltaWireDecoder(n));
  Ftvc clock(0, n);
  for (int step = 0; step < 500; ++step) {
    switch (rng.uniform(4)) {
      case 0: clock.tick_send(); break;
      case 1: clock.on_rollback(); break;
      case 2: {
        // Learn about a peer via a merge.
        Ftvc peer(1 + static_cast<ProcessId>(rng.uniform(n - 1)), n);
        for (std::uint64_t k = rng.uniform(5); k-- > 0;) peer.tick_send();
        clock.merge_deliver(peer);
        break;
      }
      default: break;  // quiet step
    }
    // Mostly-pairwise traffic with the occasional scattered send.
    const auto dst = rng.chance(0.85)
                         ? ProcessId{1}
                         : 1 + static_cast<ProcessId>(rng.uniform(n - 1));
    fifo_send(enc, decoders[dst], dst, clock);
  }
  EXPECT_LT(enc.stats().delta_bytes, enc.stats().flat_bytes)
      << "pairwise-heavy traffic must show a net saving";
}

}  // namespace
}  // namespace optrec::scale
