// Envelope codec + topology unit tests for the TCP backend.
#include <gtest/gtest.h>

#include "src/tcp/envelope.h"
#include "src/tcp/topology.h"
#include "src/wire/wire_codec.h"

namespace optrec {
namespace {

TEST(Envelope, RoundTripsEveryKind) {
  {
    Envelope e;
    e.kind = EnvelopeKind::kHello;
    e.src_node = 3;
    e.epoch = 0x1122334455667788ull;
    e.cluster = "loopback";
    const Envelope d = decode_envelope(encode_envelope(e));
    EXPECT_EQ(d.kind, EnvelopeKind::kHello);
    EXPECT_EQ(d.src_node, 3u);
    EXPECT_EQ(d.epoch, e.epoch);
    EXPECT_EQ(d.cluster, "loopback");
  }
  {
    Envelope e;
    e.kind = EnvelopeKind::kWire;
    e.src_node = 1;
    e.src_pid = 2;
    e.dst_pid = 5;
    e.app = true;
    e.sent_unix_us = 1234567;
    e.delay_us = 250;
    e.wire = {1, 2, 3, 4, 5};
    const Envelope d = decode_envelope(encode_envelope(e));
    EXPECT_EQ(d.kind, EnvelopeKind::kWire);
    EXPECT_EQ(d.src_pid, 2u);
    EXPECT_EQ(d.dst_pid, 5u);
    EXPECT_TRUE(d.app);
    EXPECT_EQ(d.sent_unix_us, 1234567u);
    EXPECT_EQ(d.delay_us, 250u);
    EXPECT_EQ(d.wire, e.wire);
  }
  {
    Envelope e;
    e.kind = EnvelopeKind::kToken;
    e.src_node = 1;
    e.token_seq = 9;
    e.src_pid = 3;
    e.wire = {2, 4, 6};
    const Envelope d = decode_envelope(encode_envelope(e));
    EXPECT_EQ(d.kind, EnvelopeKind::kToken);
    EXPECT_EQ(d.src_node, 1u);
    EXPECT_EQ(d.token_seq, 9u);
    EXPECT_EQ(d.src_pid, 3u);
    EXPECT_EQ(d.wire, e.wire);
  }
  {
    // The ack must carry BOTH the token seq and the epoch echo: a sender
    // ignores acks stamped with a previous incarnation's epoch, so an ack
    // that loses the epoch on the wire would be ignored forever and the
    // token would retry until the time cap.
    Envelope e;
    e.kind = EnvelopeKind::kTokenAck;
    e.src_node = 2;
    e.epoch = 0xdeadbeefull;
    e.token_seq = 42;
    const Envelope d = decode_envelope(encode_envelope(e));
    EXPECT_EQ(d.kind, EnvelopeKind::kTokenAck);
    EXPECT_EQ(d.epoch, 0xdeadbeefull);
    EXPECT_EQ(d.token_seq, 42u);
  }
  {
    Envelope e;
    e.kind = EnvelopeKind::kStatus;
    e.src_node = 1;
    e.status.node = 1;
    e.status.epoch = 7;
    e.status.seq = 19;
    e.status.quiet = true;
    e.status.signature = 0xabcdef;
    const Envelope d = decode_envelope(encode_envelope(e));
    EXPECT_EQ(d.status.node, 1u);
    EXPECT_EQ(d.status.epoch, 7u);
    EXPECT_EQ(d.status.seq, 19u);
    EXPECT_TRUE(d.status.quiet);
    EXPECT_EQ(d.status.signature, 0xabcdefu);
  }
  {
    Envelope e;
    e.kind = EnvelopeKind::kShutdown;
    e.src_node = 0;
    e.exit_code = 4;
    const Envelope d = decode_envelope(encode_envelope(e));
    EXPECT_EQ(d.kind, EnvelopeKind::kShutdown);
    EXPECT_EQ(d.exit_code, 4u);
  }
  {
    Envelope e;
    e.kind = EnvelopeKind::kShutdownAck;
    e.src_node = 3;
    const Envelope d = decode_envelope(encode_envelope(e));
    EXPECT_EQ(d.kind, EnvelopeKind::kShutdownAck);
    EXPECT_EQ(d.src_node, 3u);
  }
}

TEST(Envelope, RejectsHostileBodies) {
  // Unknown kind byte.
  Bytes bad = {9, 0, 0, 0, 0};
  EXPECT_THROW(decode_envelope(bad), FrameError);
  // Truncated mid-header.
  Envelope e;
  e.kind = EnvelopeKind::kWire;
  e.wire = {1, 2, 3};
  Bytes good = encode_envelope(e);
  for (std::size_t cut = 1; cut < good.size(); ++cut) {
    Bytes prefix(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_envelope(prefix), FrameError) << "cut=" << cut;
  }
  // Trailing garbage.
  Bytes trailing = good;
  trailing.push_back(0x77);
  EXPECT_THROW(decode_envelope(trailing), FrameError);
  // Whole-body oversize.
  Bytes huge(kMaxEnvelopeBytes + 1, 0);
  EXPECT_THROW(decode_envelope(huge), FrameError);
}

TEST(Envelope, WirePrefixPlusPayloadEqualsFrameEnvelope) {
  // The zero-copy send path splits a kWire envelope into a per-dest head
  // (frame_wire_envelope_prefix) plus the shared payload bytes; the
  // concatenation must be byte-identical to the copying frame_envelope
  // path or receivers would diverge.
  const std::vector<std::size_t> payload_sizes = {0, 1, 5, 127, 128, 4096};
  for (std::size_t n : payload_sizes) {
    Envelope e;
    e.kind = EnvelopeKind::kWire;
    e.src_node = 2;
    e.src_pid = 3;
    e.dst_pid = 7;
    e.app = (n % 2) == 0;
    e.sent_unix_us = 987654321;
    e.delay_us = 1500;
    e.wire = Bytes(n, static_cast<std::uint8_t>(n & 0xff));

    Bytes stream = frame_wire_envelope_prefix(e, e.wire.size());
    stream.insert(stream.end(), e.wire.begin(), e.wire.end());
    EXPECT_EQ(stream, frame_envelope(e)) << "payload size " << n;
  }
}

TEST(Envelope, WirePrefixRejectsOversizedPayloads) {
  Envelope e;
  e.kind = EnvelopeKind::kWire;
  EXPECT_THROW(frame_wire_envelope_prefix(e, kMaxFrameBytes + 1), FrameError);
}

TEST(EnvelopeReader, ReassemblesByteAtATimeAndBackToBack) {
  Envelope a;
  a.kind = EnvelopeKind::kHello;
  a.src_node = 1;
  a.epoch = 5;
  a.cluster = "c";
  Envelope b;
  b.kind = EnvelopeKind::kTokenAck;
  b.src_node = 2;
  b.epoch = 9;
  b.token_seq = 77;

  Bytes stream = frame_envelope(a);
  const Bytes second = frame_envelope(b);
  stream.insert(stream.end(), second.begin(), second.end());

  EnvelopeReader reader;
  std::vector<Envelope> got;
  for (std::uint8_t byte : stream) {
    reader.feed(&byte, 1);
    while (auto body = reader.next()) got.push_back(decode_envelope(*body));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].kind, EnvelopeKind::kHello);
  EXPECT_EQ(got[0].epoch, 5u);
  EXPECT_EQ(got[1].kind, EnvelopeKind::kTokenAck);
  EXPECT_EQ(got[1].token_seq, 77u);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(EnvelopeReader, RejectsOversizedLengthPrefixBeforeBuffering) {
  // A hostile peer claiming a huge frame must be rejected from the 4-byte
  // prefix alone, not after the receiver buffered gigabytes.
  const std::uint32_t huge = 0x40000000;
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(huge & 0xff),
      static_cast<std::uint8_t>((huge >> 8) & 0xff),
      static_cast<std::uint8_t>((huge >> 16) & 0xff),
      static_cast<std::uint8_t>((huge >> 24) & 0xff)};
  EnvelopeReader reader;
  reader.feed(prefix, 4);
  EXPECT_THROW(reader.next(), FrameError);
}

TEST(Topology, LoopbackAssignsContiguousBlocks) {
  const TcpTopology topo = TcpTopology::loopback(10, 4);
  ASSERT_EQ(topo.nodes.size(), 4u);
  EXPECT_EQ(topo.nodes[0].processes, (std::vector<ProcessId>{0, 1, 2}));
  EXPECT_EQ(topo.nodes[1].processes, (std::vector<ProcessId>{3, 4, 5}));
  EXPECT_EQ(topo.nodes[2].processes, (std::vector<ProcessId>{6, 7}));
  EXPECT_EQ(topo.nodes[3].processes, (std::vector<ProcessId>{8, 9}));
  EXPECT_EQ(topo.node_of(4), 1u);
  EXPECT_EQ(topo.node_of(9), 3u);
}

TEST(Topology, JsonRoundTripPreservesShapeAndFaults) {
  TcpTopology topo = TcpTopology::loopback(6, 3, 7800, "rt");
  topo.faults.drop_prob = 0.125;
  topo.faults.token_retry = millis(10);
  PartitionEvent part;
  part.at = millis(100);
  part.heal_at = millis(300);
  part.groups = {{0, 1}, {2}};
  topo.faults.partitions.push_back(part);

  const TcpTopology back = TcpTopology::parse(topo.to_json());
  EXPECT_EQ(back.cluster, "rt");
  EXPECT_EQ(back.n, 6u);
  ASSERT_EQ(back.nodes.size(), 3u);
  EXPECT_EQ(back.nodes[1].port, 7801);
  EXPECT_EQ(back.nodes[2].processes, (std::vector<ProcessId>{4, 5}));
  EXPECT_DOUBLE_EQ(back.faults.drop_prob, 0.125);
  EXPECT_EQ(back.faults.token_retry, millis(10));
  ASSERT_EQ(back.faults.partitions.size(), 1u);
  EXPECT_EQ(back.faults.partitions[0].heal_at, millis(300));
  EXPECT_EQ(back.faults.partitions[0].groups,
            (std::vector<std::vector<ProcessId>>{{0, 1}, {2}}));
}

TEST(Topology, LegacyScaleBlockIsIgnored) {
  // Topology files written before the wire paths became fixed still carry
  // a "scale" block; it parses and is dropped on the way back out.
  const TcpTopology topo = TcpTopology::parse(R"({
    "processes": 2,
    "nodes": [{"id": 0, "processes": [0]}, {"id": 1, "processes": [1]}],
    "scale": {"delta_piggyback": true, "token_fanout": 4,
              "relay_fallback_retries": 3}
  })");
  EXPECT_EQ(topo.nodes.size(), 2u);
  EXPECT_EQ(topo.to_json().find("scale"), std::string::npos);
}

TEST(Topology, ValidateRejectsBadShapes) {
  TcpTopology topo = TcpTopology::loopback(4, 2);
  // Process hosted twice.
  TcpTopology dup = topo;
  dup.nodes[1].processes.push_back(0);
  EXPECT_THROW(dup.validate(), std::invalid_argument);
  // Process hosted nowhere.
  TcpTopology missing = topo;
  missing.nodes[1].processes.pop_back();
  EXPECT_THROW(missing.validate(), std::invalid_argument);
  // Node ids out of order.
  TcpTopology reorder = topo;
  std::swap(reorder.nodes[0], reorder.nodes[1]);
  EXPECT_THROW(reorder.validate(), std::invalid_argument);
  // Partition naming an unknown node.
  TcpTopology part = topo;
  PartitionEvent event;
  event.at = 1;
  event.heal_at = 2;
  event.groups = {{0}, {7}};
  part.faults.partitions.push_back(event);
  EXPECT_THROW(part.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace optrec
