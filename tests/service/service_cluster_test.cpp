// End-to-end service path over a real in-process TCP cluster: a raw socket
// client speaks the framed protocol to a serving node and the replies must
// come back correct, deduplicated, and — with a slow flush interval —
// measurably gated behind the Damani-Garg output-commit point (the
// replies_gated counter proves at least one reply waited for stability).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "src/service/service_msg.h"
#include "src/tcp/tcp_cluster.h"

namespace optrec {
namespace {

using service::Op;
using service::Request;
using service::Response;
using service::Status;

int dial_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << "connect to service port " << port;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_request(int fd, const Request& req) {
  Bytes wire;
  service::append_frame(wire, req.encode());
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking read of the next framed Response (5s socket timeout).
std::optional<Response> read_response(int fd, Bytes& buf, std::size_t& pos) {
  for (;;) {
    if (auto body = service::next_frame(buf, &pos)) {
      return Response::decode(*body);
    }
    std::uint8_t chunk[1024];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return std::nullopt;
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

TEST(ServiceCluster, GatedRepliesFlowThroughRealSockets) {
  TcpClusterConfig config;
  config.n = 4;
  config.nodes = 2;
  config.seed = 11;
  config.serve = true;
  config.enable_oracle = false;  // client requests have no oracle records
  config.workload.kind = WorkloadKind::kService;
  // Slow flush: a reply produced between flushes cannot be stable yet, so
  // it must sit gated until the next flush covers its interval.
  config.process.flush_interval = millis(250);
  config.process.checkpoint_interval = millis(500);
  config.time_cap = millis(4000);

  TcpCluster cluster(config);

  // Pick a key owned by a process on node 0 so no re-routing is involved.
  std::uint64_t key = 0;
  while (cluster.topology().node_of(service::key_owner(key, config.n)) != 0) {
    ++key;
  }

  std::thread runner;
  TcpClusterResult result;
  runner = std::thread([&] { result = cluster.run(); });

  const std::uint16_t port = cluster.node(0).service_port();
  ASSERT_NE(port, 0);
  const int fd = dial_loopback(port);
  ASSERT_GE(fd, 0);
  Bytes buf;
  std::size_t pos = 0;

  Request put;
  put.op = Op::kPut;
  put.client_id = 0xC11E47;
  put.seq = 1;
  put.key = key;
  put.value = 42;
  ASSERT_TRUE(send_request(fd, put));
  auto reply = read_response(fd, buf, pos);
  ASSERT_TRUE(reply.has_value()) << "no reply within the socket timeout";
  EXPECT_EQ(reply->status, Status::kOk);
  EXPECT_EQ(reply->seq, 1u);
  EXPECT_EQ(reply->kver, 1u);
  EXPECT_EQ(reply->value, 42u);

  // Retry the same identity: the dedup table re-serves an identical reply
  // without a second execution (kver stays 1).
  ASSERT_TRUE(send_request(fd, put));
  auto dup = read_response(fd, buf, pos);
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(dup->encode(), reply->encode());

  Request get;
  get.op = Op::kGet;
  get.client_id = put.client_id;
  get.seq = 2;
  get.key = key;
  ASSERT_TRUE(send_request(fd, get));
  auto got = read_response(fd, buf, pos);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, Status::kOk);
  EXPECT_EQ(got->value, 42u);
  EXPECT_EQ(got->kver, 1u);

  ::close(fd);
  runner.join();

  // Serving clusters end 0 at the cap without quiescing.
  EXPECT_EQ(result.exit_code, 0);

  std::uint64_t requests = 0, released = 0, gated = 0, dropped = 0;
  for (const TcpNodeResult& node : result.per_node) {
    EXPECT_TRUE(node.service.enabled);
    requests += node.service.requests;
    released += node.service.replies_released;
    gated += node.service.replies_gated;
    dropped += node.service.replies_dropped;
  }
  EXPECT_EQ(requests, 3u);
  EXPECT_EQ(released, 3u);
  EXPECT_EQ(dropped, 0u);
  // The output-commit point did real work: with a 250ms flush cadence at
  // least one reply had to wait for stability before release.
  EXPECT_GE(gated, 1u);
}

TEST(ServiceCluster, GateWaitSplitsIntoOwnAndPeerStability) {
  TcpClusterConfig config;
  config.n = 4;
  config.nodes = 2;
  config.seed = 12;
  config.serve = true;
  config.enable_oracle = false;  // client requests have no oracle records
  config.workload.kind = WorkloadKind::kService;
  config.process.flush_interval = millis(10);
  config.process.checkpoint_interval = millis(200);
  config.time_cap = millis(3000);
  TcpCluster cluster(config);

  // One client per node, both at once, each moving money out of accounts
  // its node owns into accounts the other node owns: credits cross TCP in
  // both directions, so replies depend on peer states and some wait on
  // peer stability after the own log covers them.
  const auto owned_by = [&](std::uint32_t node, std::uint64_t from) {
    std::uint64_t key = from;
    while (cluster.topology().node_of(service::key_owner(key, config.n)) !=
           node) {
      ++key;
    }
    return key;
  };
  const auto client = [&](std::uint32_t node) {
    const int fd = dial_loopback(cluster.node(node).service_port());
    if (fd < 0) return;
    Bytes buf;
    std::size_t pos = 0;
    std::uint64_t key = 0;
    for (std::uint64_t seq = 1; seq <= 24; ++seq) {
      key = owned_by(node, key + 1);
      Request transfer;
      transfer.op = Op::kTransfer;
      transfer.client_id = 0x5917 + node;
      transfer.seq = seq;
      transfer.key = key;
      transfer.to_account = owned_by(1 - node, key + 1);
      transfer.value = 1;
      EXPECT_TRUE(send_request(fd, transfer));
      const auto reply = read_response(fd, buf, pos);
      EXPECT_TRUE(reply.has_value()) << "no reply within the socket timeout";
      if (!reply) break;
      EXPECT_EQ(reply->status, Status::kOk);
    }
    ::close(fd);
  };
  TcpClusterResult result;
  std::thread runner([&] { result = cluster.run(); });
  std::thread client0(client, 0);
  std::thread client1(client, 1);
  client0.join();
  client1.join();
  runner.join();
  EXPECT_EQ(result.exit_code, 0);

  double peer_wait = 0;
  for (std::uint32_t node = 0; node < config.nodes; ++node) {
    SCOPED_TRACE("node " + std::to_string(node));
    // Looks up the node's registered histogram (an unregistered name
    // would come back empty and fail the count checks).
    const auto histogram = [&](const char* name) {
      return cluster.node(node).registry().histogram(name, "").snapshot();
    };
    const auto gate = histogram("optrec_output_gate_latency_us");
    const auto own = histogram("optrec_output_gate_own_us");
    const auto peer = histogram("optrec_output_gate_peer_us");
    EXPECT_EQ(gate.count(), result.per_node[node].service.replies_released);
    EXPECT_EQ(own.count(), gate.count());
    EXPECT_EQ(peer.count(), gate.count());
    // Per reply own + peer == the whole wait, so the sums agree exactly.
    EXPECT_EQ(own.sum() + peer.sum(), gate.sum());
    peer_wait += peer.sum();
  }
  EXPECT_GT(peer_wait, 0) << "some reply waited on a peer's stability";
}

}  // namespace
}  // namespace optrec
