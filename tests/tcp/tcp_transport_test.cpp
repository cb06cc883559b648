// Socket-level tests for TcpTransport: delivery, token ack/dedupe,
// reconnect backoff, and scripted partition masking — all over real
// loopback sockets with ephemeral or pid-derived fixed ports.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>

#include "src/live/live_clock.h"
#include "src/tcp/tcp_transport.h"
#include "src/util/rng.h"
#include "src/wire/wire_codec.h"

namespace optrec {
namespace {

/// Two single-process nodes over ephemeral loopback ports.
struct Pair {
  explicit Pair(TcpFaultConfig faults = {}, bool start_b = true) {
    topo = TcpTopology::loopback(2, 2);
    topo.faults = faults;
    a = std::make_unique<TcpTransport>(clock, topo, 0, /*seed=*/7);
    b = std::make_unique<TcpTransport>(clock, topo, 1, /*seed=*/7);
    a->set_peer_port(1, b->listen_port());
    b->set_peer_port(0, a->listen_port());
    a->start();
    if (start_b) b->start();
  }

  /// Pop the next frame from `t`'s channel for `pid`, waiting up to 2 s.
  std::optional<LiveFrame> pop(TcpTransport& t, ProcessId pid,
                               SimTime wait = seconds(2)) {
    LiveChannel& ch = t.channel(pid);
    const SimTime deadline = clock.now() + wait;
    while (clock.now() < deadline) {
      auto frame = ch.pop_ready(clock, clock.now() + millis(5), rng);
      if (frame) return frame;
    }
    return std::nullopt;
  }

  LiveClock clock;
  TcpTopology topo;
  Rng rng{99};
  std::unique_ptr<TcpTransport> a, b;
};

Message app_message(ProcessId src, ProcessId dst, std::uint8_t tag) {
  Message m;
  m.kind = MessageKind::kApp;
  m.src = src;
  m.dst = dst;
  m.src_version = 0;
  m.send_seq = tag;
  m.payload = {tag, 0x5a};
  return m;
}

TEST(TcpTransport, DeliversAppMessagesAcrossNodes) {
  TcpFaultConfig faults;
  faults.min_delay = 0;
  faults.max_delay = micros(100);
  Pair pair(faults);

  for (std::uint8_t i = 0; i < 5; ++i) {
    pair.a->send(app_message(0, 1, i));
  }
  for (std::uint8_t i = 0; i < 5; ++i) {
    auto frame = pair.pop(*pair.b, 1);
    ASSERT_TRUE(frame.has_value()) << "frame " << int(i) << " never arrived";
    EXPECT_EQ(frame->src, 0u);
    EXPECT_TRUE(frame->app);
    const Frame decoded = decode_frame(frame->wire.bytes());
    ASSERT_EQ(decoded.type, FrameType::kMessage);
    EXPECT_EQ(decoded.message.payload[1], 0x5a);
    pair.b->counters().note_delivered_message(true);
  }
  EXPECT_EQ(pair.b->counters().frames_in_flight(), 0u);
  EXPECT_EQ(pair.a->tcp_stats().protocol_errors, 0u);
  // Both sides: exactly one established connection for the pair.
  EXPECT_EQ(pair.a->tcp_stats().connects, 1u);
  EXPECT_EQ(pair.b->tcp_stats().accepts, 1u);
}

TEST(TcpTransport, RetriedTokensDedupeToSingleDelivery) {
  // Zero retry interval + a receiver whose IO thread starts late: the
  // sender's token goes into the kernel-accepted socket and is then
  // re-sent every IO tick until the receiver comes up and acks. All
  // copies but the first must be suppressed by the (epoch, seq) dedupe.
  TcpFaultConfig faults;
  faults.min_delay = 0;
  faults.max_delay = micros(100);
  faults.token_retry = 0;
  Pair pair(faults, /*start_b=*/false);

  Token token;
  token.from = 0;
  token.failed = FtvcEntry{0, 42};
  pair.a->broadcast_token(token);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  pair.b->start();

  auto frame = pair.pop(*pair.b, 1);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->token);
  pair.b->counters().note_delivered_token();
  // No second copy ever surfaces.
  EXPECT_FALSE(pair.pop(*pair.b, 1, millis(200)).has_value());

  // The ack must eventually clear the unacked-token table.
  const SimTime deadline = pair.clock.now() + seconds(2);
  while (pair.a->outbound_pending() != 0 && pair.clock.now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(pair.a->outbound_pending(), 0u);
  EXPECT_GE(pair.a->tcp_stats().token_retries, 1u);
  EXPECT_EQ(pair.b->tcp_stats().dup_tokens_dropped,
            pair.b->tcp_stats().frames_rx - 2);  // hello + first copy
  EXPECT_EQ(pair.b->counters().frames_in_flight(), 0u);
}

TEST(TcpTransport, InitiatorBacksOffAndReconnects) {
  // Fixed ports so a restarted listener is reachable at the same address.
  const std::uint16_t base = static_cast<std::uint16_t>(
      21000 + (static_cast<std::uint32_t>(::getpid()) * 13) % 30000);
  TcpTopology topo = TcpTopology::loopback(2, 2, base);
  topo.faults.min_delay = 0;
  topo.faults.max_delay = micros(100);
  topo.faults.reconnect_min = millis(5);
  topo.faults.reconnect_max = millis(20);

  LiveClock clock;
  Rng rng(99);
  // Node 0 is the initiator; node 1 does not exist yet.
  TcpTransport a(clock, topo, 0, /*seed=*/7);
  a.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // Dial attempts kept failing with backoff in between: more than one, but
  // far fewer than a tight dial loop would produce.
  const std::uint64_t failures = a.tcp_stats().connect_failures;
  EXPECT_GE(failures, 2u);
  EXPECT_LE(failures, 30u);

  // The peer comes up; the initiator's next backed-off dial must land.
  TcpTransport b(clock, topo, 1, /*seed=*/7);
  b.start();
  Message m = app_message(0, 1, 9);
  a.send(m);
  LiveChannel& ch = b.channel(1);
  std::optional<LiveFrame> frame;
  const SimTime deadline = clock.now() + seconds(2);
  while (!frame && clock.now() < deadline) {
    frame = ch.pop_ready(clock, clock.now() + millis(5), rng);
  }
  ASSERT_TRUE(frame.has_value());
  b.counters().note_delivered_message(true);
  EXPECT_EQ(a.tcp_stats().connects, 1u);
  EXPECT_EQ(b.tcp_stats().accepts, 1u);
}

TEST(TcpTransport, BackpressureCapIsExactAndDropsAreAccounted) {
  // With no listener at the peer's port, nothing drains the per-peer ring:
  // the app cap must admit exactly outbound_cap_frames, and every overflow
  // must show up in BOTH backpressure_drops and messages_dropped (merged
  // cluster stats balance on the latter). Fixed ports so the peer can be
  // brought up afterwards at the address the initiator keeps dialing.
  constexpr std::size_t kCap = 8;
  constexpr std::size_t kExtra = 25;
  const std::uint16_t base = static_cast<std::uint16_t>(
      22000 + (static_cast<std::uint32_t>(::getpid()) * 17) % 30000);
  TcpTopology topo = TcpTopology::loopback(2, 2, base);
  topo.faults.min_delay = 0;
  topo.faults.max_delay = 0;
  topo.faults.reconnect_min = millis(1);
  topo.faults.reconnect_max = millis(5);
  topo.faults.outbound_cap_frames = kCap;

  LiveClock clock;
  Rng rng(99);
  TcpTransport a(clock, topo, 0, /*seed=*/7);
  a.start();

  for (std::size_t i = 0; i < kCap + kExtra; ++i) {
    a.send(app_message(0, 1, static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(a.tcp_stats().backpressure_drops, kExtra);
  EXPECT_EQ(a.counters().stats().messages_dropped, kExtra);
  // The admitted frames sit in node 1's outbound ring.
  const auto depths = a.queue_depths();
  ASSERT_EQ(depths.size(), 1u);
  EXPECT_EQ(depths[0].first, 1u);
  EXPECT_EQ(depths[0].second, kCap);

  // Once the peer comes up the ring drains, the admitted frames arrive,
  // and the cap frees up for new sends.
  TcpTransport b(clock, topo, 1, /*seed=*/7);
  b.start();
  LiveChannel& ch = b.channel(1);
  for (std::size_t i = 0; i < kCap; ++i) {
    std::optional<LiveFrame> frame;
    const SimTime deadline = clock.now() + seconds(2);
    while (!frame && clock.now() < deadline) {
      frame = ch.pop_ready(clock, clock.now() + millis(5), rng);
    }
    ASSERT_TRUE(frame.has_value()) << "capped frame " << i << " lost";
    b.counters().note_delivered_message(true);
  }
  a.send(app_message(0, 1, 0x77));
  EXPECT_EQ(a.tcp_stats().backpressure_drops, kExtra)
      << "post-drain send must be admitted";
  std::optional<LiveFrame> frame;
  const SimTime deadline = clock.now() + seconds(2);
  while (!frame && clock.now() < deadline) {
    frame = ch.pop_ready(clock, clock.now() + millis(5), rng);
  }
  ASSERT_TRUE(frame.has_value());
  b.counters().note_delivered_message(true);
}

TEST(TcpTransport, RespawnedOriginReusedRelayIdsStillDisseminate) {
  // Regression: the head's relay dedupe must be keyed by the requester's
  // incarnation epoch. A SIGKILLed+respawned origin restarts both its
  // relay-id and token-seq counters at 1; keyed by (node, relay id) alone,
  // the surviving head would match the dead incarnation's acked entry,
  // instantly re-ack, and never deliver the new failure token — orphans in
  // its subtree would never learn to roll back.
  TcpTopology topo = TcpTopology::loopback(2, 2);
  topo.faults.min_delay = 0;
  topo.faults.max_delay = micros(100);
  topo.faults.token_retry = millis(5);
  topo.scale.token_fanout = 2;

  LiveClock clock;
  Rng rng(99);
  TcpTransport b(clock, topo, 1, /*seed=*/7, /*epoch=*/500);
  const auto pop_b = [&](SimTime wait) -> std::optional<LiveFrame> {
    LiveChannel& ch = b.channel(1);
    const SimTime deadline = clock.now() + wait;
    while (clock.now() < deadline) {
      auto frame = ch.pop_ready(clock, clock.now() + millis(5), rng);
      if (frame) return frame;
    }
    return std::nullopt;
  };

  Token token;
  token.from = 0;
  token.failed = FtvcEntry{1, 0};
  {
    TcpTransport a(clock, topo, 0, /*seed=*/7, /*epoch=*/1000);
    a.set_peer_port(1, b.listen_port());
    b.set_peer_port(0, a.listen_port());
    a.start();
    b.start();
    a.broadcast_token(token);
    auto frame = pop_b(seconds(2));
    ASSERT_TRUE(frame.has_value());
    EXPECT_TRUE(frame->token);
    b.counters().note_delivered_token();
    // Wait for the relay ack, so the head has marked the first broadcast's
    // relay id covered before the origin dies.
    const SimTime deadline = clock.now() + seconds(2);
    while (a.outbound_pending() != 0 && clock.now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(a.outbound_pending(), 0u);
  }  // kill-9 stand-in: the origin vanishes with all its transport state

  // The respawned incarnation deterministically reuses relay id 1 and
  // token seq 1 toward the same head.
  TcpTransport a2(clock, topo, 0, /*seed=*/7, /*epoch=*/2000);
  a2.set_peer_port(1, b.listen_port());
  a2.start();
  token.failed = FtvcEntry{2, 0};
  a2.broadcast_token(token);

  auto frame = pop_b(seconds(2));
  ASSERT_TRUE(frame.has_value())
      << "post-respawn broadcast swallowed by the previous incarnation's "
         "relay state";
  EXPECT_TRUE(frame->token);
  b.counters().note_delivered_token();
  const Frame decoded = decode_frame(frame->wire.bytes());
  ASSERT_EQ(decoded.type, FrameType::kToken);
  EXPECT_EQ(decoded.token.failed.ver, 2u);
  EXPECT_EQ(b.tcp_stats().protocol_errors, 0u);
  // The origin's tracked relay must complete through the real ack path.
  const SimTime deadline = clock.now() + seconds(2);
  while (a2.outbound_pending() != 0 && clock.now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(a2.outbound_pending(), 0u);
}

TEST(TcpTransport, ScriptedPartitionHoldsTrafficUntilHeal) {
  TcpFaultConfig faults;
  faults.min_delay = 0;
  faults.max_delay = micros(100);
  PartitionEvent part;
  part.at = millis(30);
  part.heal_at = millis(250);
  part.groups = {{0}, {1}};
  faults.partitions.push_back(part);
  Pair pair(faults);

  // Let the link establish and the partition window open.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  pair.a->send(app_message(0, 1, 1));
  // Held: nothing may arrive while the window is open (sent at ~60 ms,
  // polls until ~160 ms, heal at 250 ms).
  EXPECT_FALSE(pair.pop(*pair.b, 1, millis(100)).has_value());

  // After heal the held frame must come through.
  auto frame = pair.pop(*pair.b, 1, seconds(2));
  ASSERT_TRUE(frame.has_value());
  EXPECT_GE(pair.clock.now(), millis(250));
  pair.b->counters().note_delivered_message(true);
  // The partition must not have torn the connection down.
  EXPECT_EQ(pair.a->tcp_stats().disconnects, 0u);
  EXPECT_EQ(pair.b->tcp_stats().disconnects, 0u);
}

}  // namespace
}  // namespace optrec
