// Socket-level tests for TcpTransport: delivery, token retry/dedupe/acks,
// reconnect backoff, scripted partition masking, hostile nested frames and
// spoofed control envelopes, and the poller backends — all over real
// loopback sockets with ephemeral or pid-derived fixed ports — plus a
// one-node transport, which opens no peer socket at all.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

TEST(TcpTransport, OneNodeBroadcastReachesEveryLocalChannelButTheSender) {
  // One node hosts all six processes: the announcing caller pushes one
  // shared token frame into every channel except its own, and nothing goes
  // near a socket.
  constexpr std::size_t kN = 6;
  LiveClock clock;
  TcpTopology topo = TcpTopology::loopback(kN, 1);
  topo.faults.min_delay = 0;
  topo.faults.max_delay = 0;
  TcpTransport transport(clock, topo, 0, /*seed=*/5);

  struct NullEndpoint : Endpoint {
    bool is_up() const override { return true; }
    void on_message(const Message&) override {}
    void on_token(const Token&) override {}
  };
  NullEndpoint endpoints[kN];
  for (ProcessId pid = 0; pid < kN; ++pid) {
    transport.attach(pid, &endpoints[pid]);
  }
  transport.start();

  Token token;
  token.from = 2;
  token.failed = {1, 7};
  transport.broadcast_token(token);

  EXPECT_EQ(transport.counters().stats().tokens_sent, kN - 1);
  Rng rng(9);
  for (ProcessId pid = 0; pid < kN; ++pid) {
    if (pid == token.from) continue;
    auto frame = transport.channel(pid).pop_ready(
        clock, clock.now() + seconds(5), rng);
    ASSERT_TRUE(frame.has_value()) << "no token reached P" << pid;
    EXPECT_TRUE(frame->token);
    const Frame decoded = decode_frame(frame->wire.bytes());
    ASSERT_EQ(decoded.type, FrameType::kToken);
    EXPECT_EQ(decoded.token.from, token.from);
    EXPECT_EQ(decoded.token.failed, token.failed);
    transport.counters().note_delivered_token();
  }
  EXPECT_EQ(transport.counters().frames_in_flight(), 0u);
  EXPECT_EQ(transport.counters().stats().tokens_delivered, kN - 1);
  EXPECT_EQ(transport.channel(token.from).size(), 0u);
  EXPECT_EQ(transport.outbound_pending(), 0u);
  EXPECT_EQ(transport.tcp_stats().tokens_tx, 0u);
  EXPECT_EQ(transport.tcp_stats().frames_tx, 0u);
}

TEST(TcpTransport, RetriedTokensDedupeToSingleDelivery) {
  // Zero retry interval + a receiver whose IO thread starts late: the
  // sender's kToken goes into the kernel-accepted socket and is then
  // re-sent every IO tick until the receiver comes up and acks. All
  // copies but the first must be suppressed by the receiver's dedupe.
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

  // The ack must eventually clear the outstanding send.
  const SimTime deadline = pair.clock.now() + seconds(2);
  while (pair.a->outbound_pending() != 0 && pair.clock.now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(pair.a->outbound_pending(), 0u);
  EXPECT_GE(pair.a->tcp_stats().token_retries, 1u);
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
  // Regression: the receiver's token dedupe must be keyed by the sender's
  // incarnation epoch. A SIGKILLed+respawned origin restarts its token-seq
  // counter at 1; keyed by (node, seq) alone, the surviving receiver would
  // match the dead incarnation's entry, ack, and never deliver the new
  // failure token — its orphans would never learn to roll back.
  TcpTopology topo = TcpTopology::loopback(2, 2);
  topo.faults.min_delay = 0;
  topo.faults.max_delay = micros(100);
  topo.faults.token_retry = millis(5);

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
    // Wait for the ack, so the receiver has recorded the first broadcast's
    // token seq before the origin dies.
    const SimTime deadline = clock.now() + seconds(2);
    while (a.outbound_pending() != 0 && clock.now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(a.outbound_pending(), 0u);
  }  // kill-9 stand-in: the origin vanishes with all its transport state

  // The respawned incarnation deterministically reuses token seq 1 toward
  // the same receiver.
  TcpTransport a2(clock, topo, 0, /*seed=*/7, /*epoch=*/2000);
  a2.set_peer_port(1, b.listen_port());
  a2.start();
  token.failed = FtvcEntry{2, 0};
  a2.broadcast_token(token);

  auto frame = pop_b(seconds(2));
  ASSERT_TRUE(frame.has_value())
      << "post-respawn broadcast swallowed by the previous incarnation's "
         "dedupe state";
  EXPECT_TRUE(frame->token);
  b.counters().note_delivered_token();
  const Frame decoded = decode_frame(frame->wire.bytes());
  ASSERT_EQ(decoded.type, FrameType::kToken);
  EXPECT_EQ(decoded.token.failed.ver, 2u);
  EXPECT_EQ(b.tcp_stats().protocol_errors, 0u);
  // The origin's tracked send must complete through the real ack path.
  const SimTime deadline = clock.now() + seconds(2);
  while (a2.outbound_pending() != 0 && clock.now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(a2.outbound_pending(), 0u);
}

/// Blocking loopback connection to `port` whose reads time out after 2 s.
int dial_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  timeval timeout{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  return fd;
}

void send_all(int fd, const Bytes& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// True once the peer closes the connection (whatever it sent first).
bool closed_by_peer(int fd) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return true;
    if (n < 0) return errno == ECONNRESET;
  }
}

/// Next envelope of `kind` on a raw connection (other kinds are skipped),
/// or nullopt if none completes within `wait_ms`; 0 takes only what has
/// already arrived.
std::optional<Envelope> next_envelope(int fd, EnvelopeReader& reader,
                                      EnvelopeKind kind, int wait_ms = 2000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(wait_ms);
  for (;;) {
    while (auto body = reader.next()) {
      Envelope e = decode_envelope(*body);
      if (e.kind == kind) return e;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(std::max<std::int64_t>(
                            0, left.count()))) <= 0) {
      return std::nullopt;
    }
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return std::nullopt;
    reader.feed(buf, static_cast<std::size_t>(n));
  }
}

/// Dial `t` posing as `node` of `topo`: the hello is sent, nothing read.
int dial_as(const TcpTransport& t, const TcpTopology& topo,
            std::uint32_t node) {
  const int fd = dial_loopback(t.listen_port());
  if (fd < 0) return fd;
  Envelope hello;
  hello.kind = EnvelopeKind::kHello;
  hello.src_node = node;
  hello.epoch = 1;
  hello.cluster = topo.cluster;
  send_all(fd, frame_envelope(hello));
  return fd;
}

TEST(TcpTransport, MalformedNestedFramesDropTheConnectionNotTheNode) {
  // Regression: workers decode nested frames without an error handler, so
  // a nested frame that is not what its envelope promises must be refused
  // on the IO thread — counted as a protocol error, connection dropped —
  // or one hostile peer aborts the whole node. Each envelope below is well
  // formed; only what it carries is wrong.
  TcpTopology topo = TcpTopology::loopback(2, 2);
  topo.faults.min_delay = 0;
  topo.faults.max_delay = 0;
  LiveClock clock;
  Rng rng(99);
  TcpTransport b(clock, topo, 1, /*seed=*/7);
  b.start();

  Envelope wire;
  wire.kind = EnvelopeKind::kWire;
  wire.src_pid = 0;
  wire.dst_pid = 1;
  wire.app = true;
  Envelope token_env;
  token_env.kind = EnvelopeKind::kToken;
  token_env.token_seq = 1;
  token_env.src_pid = 0;
  Token token;
  token.from = 0;
  // Node 0 may announce only the failures of the processes it hosts.
  Token foreign;
  foreign.from = 1;
  Message misaddressed = app_message(0, 1, 1);
  misaddressed.dst = 0;
  // The receive path indexes a clock by pid: one with neither 0 nor n
  // entries used to reach the DG worker and throw out_of_range there.
  Message short_clock = app_message(0, 1, 3);
  short_clock.clock = Ftvc::with_entries(0, std::vector<FtvcEntry>(1));

  std::vector<std::pair<std::string, Envelope>> cases;
  cases.emplace_back("kWire: truncated message", wire);
  cases.back().second.wire = {0x01, 0xff, 0xff, 0xff};
  cases.emplace_back("kWire: token frame", wire);
  cases.back().second.wire = encode_token_frame(token);
  cases.emplace_back("kWire: message for another pid", wire);
  cases.back().second.wire = encode_message_frame(misaddressed);
  cases.emplace_back("kWire: 1-entry clock in a 2-process fleet", wire);
  cases.back().second.wire = encode_message_frame(short_clock);
  cases.emplace_back("kToken: message frame", token_env);
  cases.back().second.wire = encode_message_frame(app_message(0, 1, 2));
  cases.emplace_back("kToken: truncated token", token_env);
  cases.back().second.wire = {0x02, 0xff};
  cases.emplace_back("kToken: another node's process", token_env);
  cases.back().second.src_pid = 1;
  cases.back().second.wire = encode_token_frame(foreign);

  std::uint64_t errors = 0;
  for (const auto& [what, envelope] : cases) {
    const int fd = dial_as(b, topo, 0);
    ASSERT_GE(fd, 0);
    send_all(fd, frame_envelope(envelope));
    EXPECT_TRUE(closed_by_peer(fd)) << what;
    ::close(fd);
    EXPECT_EQ(b.tcp_stats().protocol_errors, ++errors) << what;
  }
  EXPECT_FALSE(
      b.channel(1).pop_ready(clock, clock.now() + millis(50), rng).has_value())
      << "a malformed frame reached a worker's channel";
}

TEST(TcpTransport, ReceivedFramesAreCountedByTheirDecodedKind) {
  // The quiet claim counts app messages only, pushed on arrival and handed
  // over by the worker, which goes by the decoded message kind. The
  // envelope's app flag comes from the peer, so the IO thread must not
  // trust it: a mislabelled frame would leave the count off for good.
  TcpTopology topo = TcpTopology::loopback(2, 2);
  topo.faults.min_delay = 0;
  topo.faults.max_delay = 0;
  LiveClock clock;
  Rng rng(99);
  TcpTransport b(clock, topo, 1, /*seed=*/7);
  b.start();
  const int fd = dial_as(b, topo, 0);
  ASSERT_GE(fd, 0);

  Message control = app_message(0, 1, 2);
  control.kind = MessageKind::kControl;
  Envelope wire;
  wire.kind = EnvelopeKind::kWire;
  wire.src_pid = 0;
  wire.dst_pid = 1;
  wire.app = false;  // a lie: an app message
  wire.wire = encode_message_frame(app_message(0, 1, 1));
  send_all(fd, frame_envelope(wire));
  wire.app = true;  // a lie: a control message
  wire.wire = encode_message_frame(control);
  send_all(fd, frame_envelope(wire));

  for (int i = 0; i < 2; ++i) {
    auto frame = b.channel(1).pop_ready(clock, clock.now() + seconds(2), rng);
    ASSERT_TRUE(frame.has_value());
    const Frame decoded = decode_frame(frame->wire.bytes());
    ASSERT_EQ(decoded.type, FrameType::kMessage);
    const bool app = decoded.message.kind == MessageKind::kApp;
    EXPECT_EQ(frame->app, app);
    b.counters().note_delivered_message(app);
  }
  EXPECT_EQ(b.counters().frames_in_flight(), 0u);
  EXPECT_EQ(b.tcp_stats().protocol_errors, 0u);
  ::close(fd);
}

TEST(TcpTransport, QuietClaimCountsQueuedAppFramesAndUnackedTokensOnly) {
  // Node 0's IO thread never starts, so everything it sends stays queued.
  // A queued control frame (a checkpoint marker, say) is outbound work but
  // not part of the quiet claim; an app frame and an unacked token are.
  TcpTopology topo = TcpTopology::loopback(2, 2);
  LiveClock clock;
  TcpTransport t(clock, topo, 0, /*seed=*/7);

  Message marker = app_message(0, 1, 1);
  marker.kind = MessageKind::kControl;
  t.send(marker);
  EXPECT_EQ(t.outbound_pending(), 1u);
  EXPECT_EQ(t.outbound_app_and_tokens(), 0u);

  t.send(app_message(0, 1, 2));
  EXPECT_EQ(t.outbound_app_and_tokens(), 1u);

  Token token;
  token.from = 0;
  token.failed = FtvcEntry{0, 3};
  t.broadcast_token(token);
  EXPECT_EQ(t.outbound_app_and_tokens(), 2u);
  EXPECT_GT(t.outbound_pending(), t.outbound_app_and_tokens());
}

TEST(TcpTransport, TokenAckFromAnotherNodeLeavesTheSendPending) {
  // An ack clears only the send addressed to the node whose connection
  // carried it. Node 2 broadcasts to raw peers posing as nodes 0 and 1;
  // node 1 acks the token seq node 0 was sent. Node 1's send is done, but
  // node 0's must stay pending and keep being retried until node 0 acks.
  TcpTopology topo = TcpTopology::loopback(3, 3);
  topo.faults.min_delay = 0;
  topo.faults.max_delay = 0;
  topo.faults.token_retry = millis(5);
  LiveClock clock;
  TcpTransport t(clock, topo, 2, /*seed=*/7, /*epoch=*/900);
  t.start();
  int fds[2];
  EnvelopeReader readers[2];
  for (std::uint32_t node = 0; node < 2; ++node) {
    fds[node] = dial_as(t, topo, node);
    ASSERT_GE(fds[node], 0);
  }

  Token token;
  token.from = 2;
  token.failed = FtvcEntry{1, 0};
  t.broadcast_token(token);
  const auto sent = next_envelope(fds[0], readers[0], EnvelopeKind::kToken);
  ASSERT_TRUE(sent.has_value());
  Envelope ack;
  ack.kind = EnvelopeKind::kTokenAck;
  ack.src_node = 1;
  ack.epoch = t.epoch();
  ack.token_seq = sent->token_seq;
  send_all(fds[1], frame_envelope(ack));

  // Let the ack land, then forget every copy sent before it did.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int i = 0; i < 2; ++i) {
    while (next_envelope(fds[i], readers[i], EnvelopeKind::kToken, 0)) {
    }
  }
  const auto retried = next_envelope(fds[0], readers[0], EnvelopeKind::kToken);
  ASSERT_TRUE(retried.has_value()) << "node 1's ack cleared node 0's send";
  EXPECT_EQ(retried->token_seq, sent->token_seq);
  EXPECT_FALSE(
      next_envelope(fds[1], readers[1], EnvelopeKind::kToken, 100).has_value())
      << "node 1's own send survived its ack";
  EXPECT_NE(t.outbound_pending(), 0u);

  ack.src_node = 0;
  send_all(fds[0], frame_envelope(ack));
  const SimTime deadline = clock.now() + seconds(2);
  while (t.outbound_pending() != 0 && clock.now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(t.outbound_pending(), 0u);
  EXPECT_EQ(t.tcp_stats().tokens_tx, 2u);
  EXPECT_EQ(t.tcp_stats().acks_rx, 2u);
  EXPECT_EQ(t.tcp_stats().protocol_errors, 0u);
  for (int fd : fds) ::close(fd);
}

TEST(TcpTransport, SpoofedStatusAndShutdownDropTheConnection) {
  // Control envelopes speak only for their own connection. A status that
  // names another node could report it quiet and let the coordinator shut
  // the fleet down with work in flight; a shutdown from anyone but the
  // coordinator (node 0) would stop a node; and only the coordinator
  // collects shutdown acks. Each drops the connection as a protocol error.
  TcpTopology topo = TcpTopology::loopback(3, 3);
  LiveClock clock;
  TcpTransport coordinator(clock, topo, 0, /*seed=*/7);
  TcpTransport node1(clock, topo, 1, /*seed=*/7);
  coordinator.start();
  node1.start();

  NodeStatusReport quiet;
  quiet.node = 1;
  quiet.quiet = true;
  Envelope spoofed_status;
  spoofed_status.kind = EnvelopeKind::kStatus;
  spoofed_status.src_node = 2;
  spoofed_status.status = quiet;
  Envelope shutdown;
  shutdown.kind = EnvelopeKind::kShutdown;
  shutdown.src_node = 2;
  Envelope shutdown_ack;
  shutdown_ack.kind = EnvelopeKind::kShutdownAck;
  shutdown_ack.src_node = 2;

  struct Case {
    const char* what;
    TcpTransport* target;
    Envelope envelope;
  };
  const Case cases[] = {
      {"status naming node 1 from node 2", &coordinator, spoofed_status},
      {"shutdown from node 2", &coordinator, shutdown},
      {"shutdown from node 2", &node1, shutdown},
      {"shutdown ack at node 1", &node1, shutdown_ack},
  };
  for (const Case& c : cases) {
    const std::uint64_t errors = c.target->tcp_stats().protocol_errors;
    const int fd = dial_as(*c.target, topo, 2);
    ASSERT_GE(fd, 0);
    send_all(fd, frame_envelope(c.envelope));
    EXPECT_TRUE(closed_by_peer(fd)) << c.what;
    ::close(fd);
    EXPECT_EQ(c.target->tcp_stats().protocol_errors, errors + 1) << c.what;
  }
  EXPECT_FALSE(coordinator.peer_statuses()[1].has_value());
  std::uint8_t code = 0;
  EXPECT_FALSE(coordinator.shutdown_received(&code));
  EXPECT_FALSE(node1.shutdown_received(&code));

  // The same envelopes on their own connections are honoured: node 2's own
  // status reaches the coordinator, and node 0's shutdown stops node 1,
  // which acks it.
  const int from2 = dial_as(coordinator, topo, 2);
  quiet.node = 2;
  spoofed_status.status = quiet;
  send_all(from2, frame_envelope(spoofed_status));
  const int from0 = dial_as(node1, topo, 0);
  shutdown.src_node = 0;
  shutdown.exit_code = 4;
  send_all(from0, frame_envelope(shutdown));
  EnvelopeReader reader;
  EXPECT_TRUE(
      next_envelope(from0, reader, EnvelopeKind::kShutdownAck).has_value());
  EXPECT_TRUE(node1.shutdown_received(&code));
  EXPECT_EQ(code, 4u);
  const SimTime deadline = clock.now() + seconds(2);
  while (!coordinator.peer_statuses()[2].has_value() &&
         clock.now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(coordinator.peer_statuses()[2].has_value());
  ::close(from2);
  ::close(from0);
}

TEST(Poller, ReportsReadableWritableAndHangupOnBothBackends) {
  for (const bool use_poll : {false, true}) {
    SCOPED_TRACE(use_poll ? "poll(2)" : "platform default");
    int pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
    Poller poller(use_poll);
#ifdef __linux__
    EXPECT_EQ(poller.using_poll(), use_poll);
#endif
    const auto wait_for = [&](int fd) -> Poller::Event {
      for (const Poller::Event& ev : poller.wait(1000)) {
        if (ev.fd == fd) return ev;
      }
      return Poller::Event{};
    };
    poller.add(pair[0], /*want_read=*/true, /*want_write=*/false);
    EXPECT_TRUE(poller.wait(0).empty());

    ASSERT_EQ(::write(pair[1], "x", 1), 1);
    const Poller::Event readable = wait_for(pair[0]);
    EXPECT_TRUE(readable.readable);
    EXPECT_FALSE(readable.broken);
    char byte = 0;
    ASSERT_EQ(::read(pair[0], &byte, 1), 1);

    poller.set(pair[0], /*want_read=*/false, /*want_write=*/true);
    const Poller::Event writable = wait_for(pair[0]);
    EXPECT_TRUE(writable.writable);
    EXPECT_FALSE(writable.readable);

    poller.set(pair[0], /*want_read=*/true, /*want_write=*/false);
    ::close(pair[1]);
    EXPECT_TRUE(wait_for(pair[0]).broken);

    poller.remove(pair[0]);
    EXPECT_EQ(poller.size(), 0u);
    ::close(pair[0]);
  }
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
