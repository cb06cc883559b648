// Property/fuzz tests for the delta piggyback codec: random FTVC histories
// pushed through random drops, duplicates, reorders, reconnects, and
// respawns. The invariant checked at EVERY delivery is the acceptance bar
// from the wire-codec layer: the decoded message re-encodes byte-identical
// to the flat encode_message_frame() of the original. Resyncs are allowed
// (they are the designed recovery path); silent divergence is not.
// In-order reliable streams (the TCP contract) must never need a resync.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "src/clocks/ftvc.h"
#include "src/scale/delta_codec.h"
#include "src/util/rng.h"
#include "src/wire/wire_codec.h"

namespace optrec::scale {
namespace {

struct InFlight {
  std::size_t src = 0;
  std::size_t dst = 0;
  Bytes wire;
  Bytes flat;  // expected stateless encoding of the original message
};

Message make_msg(std::size_t src, std::size_t dst, const Ftvc& clock,
                 std::uint64_t send_seq, Rng& rng) {
  Message m;
  m.kind = MessageKind::kApp;
  m.src = static_cast<ProcessId>(src);
  m.dst = static_cast<ProcessId>(dst);
  m.src_version = clock.entry(m.src).ver;
  m.send_seq = send_seq;
  m.clock = clock;
  m.payload.resize(rng.uniform(16));
  for (auto& b : m.payload) b = static_cast<std::uint8_t>(rng.uniform(256));
  m.sender_state = rng.next_u64();
  m.id = rng.next_u64();
  return m;
}

/// Chaotic-channel property: the FIFO codec under drops/dups/reorders/
/// resets decodes every frame exactly or throws DeltaResyncRequired.
void run_chaos(std::size_t n, std::size_t ops, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Ftvc> clocks;
  std::vector<std::uint64_t> epochs(n, 1);
  std::vector<std::uint64_t> send_seqs(n, 0);
  std::vector<DeltaWireEncoder> encs;
  std::vector<DeltaWireDecoder> decs;
  for (std::size_t i = 0; i < n; ++i) {
    clocks.emplace_back(static_cast<ProcessId>(i), n);
    encs.emplace_back(n, epochs[i]);
    decs.emplace_back(n);
  }
  std::vector<InFlight> net;
  std::uint64_t deliveries = 0;
  std::uint64_t resyncs = 0;

  auto deliver_at = [&](std::size_t index) {
    InFlight f = net[index];
    Message out;
    try {
      out = decs[f.dst].decode_from(f.src, f.wire);
    } catch (const DeltaResyncRequired&) {
      // Designed recovery: receiver NAKs, both ends drop stream state, the
      // frame is abandoned (the transport would re-send it full).
      ++resyncs;
      decs[f.dst].reset(f.src);
      encs[f.src].reset(f.dst);
      return;
    }
    ASSERT_EQ(encode_message_frame(out), f.flat)
        << "silent clock divergence at delivery " << deliveries;
    ++deliveries;
    clocks[f.dst].merge_deliver(out.clock);
  };

  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t roll = rng.uniform(100);
    if (roll < 45 || net.empty()) {
      // Send: tick the sender and encode for a random peer.
      const std::size_t src = rng.uniform(n);
      std::size_t dst = rng.uniform(n);
      if (dst == src) dst = (dst + 1) % n;
      clocks[src].tick_send();
      const Message msg =
          make_msg(src, dst, clocks[src], ++send_seqs[src], rng);
      InFlight f;
      f.src = src;
      f.dst = dst;
      f.flat = encode_message_frame(msg);
      f.wire = encs[src].encode_for(dst, msg);
      net.push_back(std::move(f));
    } else if (roll < 75) {
      // Deliver a random in-flight frame (random index == full reorder);
      // sometimes deliver it twice.
      const std::size_t index = rng.uniform(net.size());
      const bool dup = rng.uniform(10) == 0;
      deliver_at(index);
      if (dup) deliver_at(index);
      net.erase(net.begin() + static_cast<std::ptrdiff_t>(index));
    } else if (roll < 85) {
      // Drop a random in-flight frame on the floor.
      const std::size_t index = rng.uniform(net.size());
      net.erase(net.begin() + static_cast<std::ptrdiff_t>(index));
    } else if (roll < 95) {
      // Reconnect one directed pair: both ends drop stream state; frames
      // already in flight stay and may arrive stale later.
      const std::size_t src = rng.uniform(n);
      std::size_t dst = rng.uniform(n);
      if (dst == src) dst = (dst + 1) % n;
      encs[src].reset(dst);
      decs[dst].reset(src);
    } else {
      // Crash + respawn of one process: clock version bumps, encoder is
      // reborn under a new epoch WITH ITS SEQ COUNTERS INTACT (the reused
      // send-seq hazard), its own decoder state is wiped, and peers'
      // encoders toward it reset on reconnect. Peers' decoders are
      // deliberately NOT reset: the epoch carried by the next full frame
      // must hard-reset them.
      const std::size_t p = rng.uniform(n);
      clocks[p].on_restart();
      encs[p].rebirth(++epochs[p]);
      decs[p].reset_all();
      for (std::size_t q = 0; q < n; ++q) {
        if (q != p) encs[q].reset(p);
      }
    }
  }
  // Drain what's left so the run always exercises late stale deliveries.
  while (!net.empty()) {
    deliver_at(net.size() - 1);
    net.pop_back();
  }
  EXPECT_GT(deliveries, ops / 4) << "chaos schedule delivered too little";
  EXPECT_GT(resyncs, 0u) << "chaos schedule never exercised a resync";
}

TEST(DeltaCodecPropertyTest, AckedModeSurvivesChaosSmallFleet) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_chaos(/*n=*/5, /*ops=*/700, seed);
  }
}

TEST(DeltaCodecPropertyTest, AckedModeSurvivesChaosWideClocks) {
  run_chaos(/*n=*/48, /*ops=*/400, /*seed=*/99);
}

/// FIFO-channel property: in-order reliable delivery per directed pair (the
/// TCP contract), with random connection resets that clear the pair's queue.
TEST(DeltaCodecPropertyTest, FifoModeExactOverInOrderStreams) {
  constexpr std::size_t kN = 6;
  Rng rng(2024);
  std::vector<Ftvc> clocks;
  std::vector<std::uint64_t> send_seqs(kN, 0);
  std::vector<DeltaWireEncoder> encs;
  std::vector<DeltaWireDecoder> decs;
  for (std::size_t i = 0; i < kN; ++i) {
    clocks.emplace_back(static_cast<ProcessId>(i), kN);
    encs.emplace_back(kN, 1);
    decs.emplace_back(kN);
  }
  // One FIFO queue per directed pair.
  std::vector<std::deque<InFlight>> queues(kN * kN);
  std::uint64_t deliveries = 0;

  for (std::size_t op = 0; op < 1500; ++op) {
    const std::uint64_t roll = rng.uniform(100);
    const std::size_t src = rng.uniform(kN);
    std::size_t dst = rng.uniform(kN);
    if (dst == src) dst = (dst + 1) % kN;
    auto& q = queues[src * kN + dst];
    if (roll < 45) {
      clocks[src].tick_send();
      const Message msg =
          make_msg(src, dst, clocks[src], ++send_seqs[src], rng);
      InFlight f;
      f.src = src;
      f.dst = dst;
      f.flat = encode_message_frame(msg);
      f.wire = encs[src].encode_for(dst, msg);
      q.push_back(std::move(f));
    } else if (roll < 90) {
      if (q.empty()) continue;
      const InFlight& f = q.front();
      const Message out = decs[f.dst].decode_from(f.src, f.wire);
      ASSERT_EQ(encode_message_frame(out), f.flat);
      clocks[f.dst].merge_deliver(out.clock);
      ++deliveries;
      q.pop_front();
    } else {
      // Connection reset: staged frames die with the socket, both codec
      // ends drop state — exactly the transport's close_peer discipline.
      q.clear();
      encs[src].reset(dst);
      decs[dst].reset(src);
    }
  }
  EXPECT_GT(deliveries, 200u);
}

}  // namespace
}  // namespace optrec::scale
