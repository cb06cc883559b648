// The two exports agree: every row of every counter table reaches both the
// registry behind /metrics and the node's --metrics-json blocks, with equal
// values. Runs a small serving TcpCluster with a data dir and one crash, so
// the protocol, socket, durable and service groups all count something,
// then compares the final registry of each node with the JSON that
// `optrec_node --node=K --metrics-json` would write for it.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <type_traits>

#include "src/harness/run_flags.h"
#include "src/service/service_msg.h"
#include "src/tcp/tcp_cluster.h"
#include "src/util/json.h"
#include "tests/temp_dir.h"

namespace optrec {
namespace {

/// One family's scalar samples folded over labels.
struct Folded {
  double sum = 0;
  double max = 0;
};

std::map<std::string, Folded> fold(telemetry::MetricsRegistry& registry) {
  std::map<std::string, Folded> out;
  for (const telemetry::Sample& s : registry.collect()) {
    if (s.kind == telemetry::SampleKind::kHistogram) continue;
    Folded& f = out[s.name];
    f.sum += s.value;
    f.max = std::max(f.max, s.value);
  }
  return out;
}

/// Every row of S is a key of `block`, and its family is in the registry
/// with the same value (kMaxGauge rows fold by max). Only Metrics has
/// JSON-only rows: it exports the rows ProcessGauges mirrors.
template <typename S>
void expect_rows_agree(const JsonValue& doc, const char* block,
                       const std::map<std::string, Folded>& registry) {
  const JsonValue* json = doc.find(block);
  ASSERT_NE(json, nullptr) << "no " << block << " block";
  for (const auto& f : S::kFields) {
    const JsonValue* value = json->find(f.key);
    ASSERT_NE(value, nullptr) << block << "." << f.key << " not in the JSON";
    if (f.family == nullptr) {
      EXPECT_TRUE((std::is_same_v<S, Metrics>))
          << block << "." << f.key << " has no /metrics family";
      continue;
    }
    const auto it = registry.find(f.family);
    ASSERT_NE(it, registry.end()) << f.family << " not on /metrics";
    const double scraped = f.kind == CounterKind::kMaxGauge ? it->second.max
                                                            : it->second.sum;
    EXPECT_EQ(scraped, static_cast<double>(value->as_u64()))
        << f.family << " vs " << block << "." << f.key;
  }
}

/// Send `count` requests over one connection, puts and transfers in turn
/// (a transfer's credit crosses processes), and read what comes back
/// (replies or kWrongNode redirects); a missing reply ends the exchange.
void drive_client(std::uint16_t port, std::uint64_t client, int count) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  Bytes buf;
  std::size_t pos = 0;
  for (int i = 0; i < count; ++i) {
    service::Request req;
    req.op = i % 2 == 0 ? service::Op::kPut : service::Op::kTransfer;
    req.client_id = client;
    req.seq = static_cast<std::uint64_t>(i) + 1;
    req.key = static_cast<std::uint64_t>(i);
    req.to_account = req.key + 1;
    req.value = 1;
    Bytes wire;
    service::append_frame(wire, req.encode());
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    while (!service::next_frame(buf, &pos)) {
      std::uint8_t chunk[1024];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        ::close(fd);
        return;
      }
      buf.insert(buf.end(), chunk, chunk + n);
    }
  }
  ::close(fd);
}

TEST(TelemetryExports, EveryTableRowAgreesOnMetricsAndInTheJson) {
  const TempDir data;
  TcpClusterConfig config;
  config.n = 4;
  config.nodes = 2;
  config.seed = 5;
  config.serve = true;
  config.enable_oracle = false;  // client requests have no oracle records
  config.workload.kind = WorkloadKind::kService;
  config.process.flush_interval = millis(10);
  config.process.checkpoint_interval = millis(50);
  config.process.retransmit_on_failure = true;
  config.crashes = {CrashEvent{millis(300), 1}};
  config.time_cap = millis(2000);
  config.data_dir = data.path.string();

  TcpCluster cluster(config);
  TcpClusterResult result;
  std::thread runner([&] { result = cluster.run(); });
  drive_client(cluster.node(0).service_port(), 0xE1, 12);
  drive_client(cluster.node(1).service_port(), 0xE2, 12);
  runner.join();
  ASSERT_EQ(result.exit_code, 0);

  for (std::uint32_t id = 0; id < config.nodes; ++id) {
    SCOPED_TRACE("node " + std::to_string(id));
    const TcpNodeResult& node = result.per_node[id];
    // The JSON `optrec_node --node=K --metrics-json` writes for this node.
    RunReport report;
    report.backend = "tcp";
    report.metrics = node.metrics;
    report.net = node.net;
    report.json_blocks = [&node](JsonWriter& w) { node.write_json(w); };
    const JsonValue doc = JsonValue::parse(run_json(report));
    const auto registry = fold(cluster.node(id).registry());

    expect_rows_agree<Metrics>(doc, "metrics", registry);
    expect_rows_agree<Network::Stats>(doc, "network", registry);
    expect_rows_agree<TcpTransport::TcpStats>(doc, "tcp", registry);
    expect_rows_agree<DurableStats>(doc, "durable", registry);
    expect_rows_agree<service::ServiceStats>(doc, "service", registry);

    // The status-gossip block sums the same mirrored rows.
    const NodeStatsBlock block = cluster.node(id).stats_block();
    for (const NodeStatsField& f : NodeStatsBlock::kFields) {
      if (f.metric != nullptr) {
        EXPECT_EQ(block.*f.member, node.metrics.*f.metric) << f.key;
      }
    }
    EXPECT_EQ(block.bytes_tx, node.tcp.bytes_tx);

    // Every group counted something, so equal values are not all zeros.
    EXPECT_GT(node.metrics.messages_delivered, 0u);
    EXPECT_GT(node.tcp.delta_frames_tx, 0u);
    EXPECT_GT(node.durable.fsync_total, 0u);
    EXPECT_GT(node.service.requests, 0u);
  }
  EXPECT_GT(result.metrics.app_messages_sent, 0u);
  EXPECT_GT(result.metrics.crashes, 0u);
}

}  // namespace
}  // namespace optrec
