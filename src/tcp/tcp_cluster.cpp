#include "src/tcp/tcp_cluster.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace optrec {

namespace {

void add_net(Network::Stats& into, const Network::Stats& from) {
  for (const Network::Stats::Field& f : Network::Stats::kFields) {
    into.*f.second += from.*f.second;
  }
}

void add_tcp(TcpTransport::TcpStats& into,
             const TcpTransport::TcpStats& from) {
  into.connects += from.connects;
  into.accepts += from.accepts;
  into.disconnects += from.disconnects;
  into.connect_failures += from.connect_failures;
  into.frames_tx += from.frames_tx;
  into.frames_rx += from.frames_rx;
  into.bytes_tx += from.bytes_tx;
  into.bytes_rx += from.bytes_rx;
  into.acks_tx += from.acks_tx;
  into.acks_rx += from.acks_rx;
  into.token_retries += from.token_retries;
  into.dup_tokens_dropped += from.dup_tokens_dropped;
  into.backpressure_drops += from.backpressure_drops;
  into.protocol_errors += from.protocol_errors;
  into.writev_calls += from.writev_calls;
  into.ring_overflows += from.ring_overflows;
  into.delta_frames_tx += from.delta_frames_tx;
  into.delta_bytes_tx += from.delta_bytes_tx;
  into.delta_flat_bytes += from.delta_flat_bytes;
  into.delta_resyncs += from.delta_resyncs;
  into.relays_tx += from.relays_tx;
  into.relay_splits += from.relay_splits;
}

}  // namespace

TcpCluster::TcpCluster(TcpClusterConfig config) : config_(std::move(config)) {
  topo_ = TcpTopology::loopback(config_.n, config_.nodes, /*base_port=*/0,
                                "loopback", config_.telemetry_base_port,
                                config_.service_base_port);
  if (config_.serve && config_.enable_oracle) {
    throw std::invalid_argument(
        "TcpCluster: serve requires enable_oracle = false (injected client "
        "requests have no oracle send records)");
  }
  topo_.faults = config_.faults;
  topo_.scale = config_.scale;
  if (config_.enable_oracle) oracle_ = std::make_unique<CausalityOracle>();
  if (config_.enable_trace) trace_ = std::make_unique<TraceRecorder>();

  for (std::uint32_t id = 0; id < topo_.nodes.size(); ++id) {
    TcpNodeConfig nc;
    nc.topology = topo_;
    nc.node = id;
    nc.seed = config_.seed;
    nc.protocol = config_.protocol;
    nc.workload = config_.workload;
    nc.process = config_.process;
    nc.crashes = config_.crashes;
    nc.time_cap = config_.time_cap;
    nc.settle = config_.settle;
    nc.status_interval = config_.status_interval;
    nc.max_block = config_.max_block;
    if (!config_.data_dir.empty()) {
      nc.data_dir = config_.data_dir + "/node-" + std::to_string(id);
    }
    nc.oracle = oracle_.get();
    nc.trace = trace_.get();
    nc.telemetry = config_.telemetry;
    nc.serve = config_.serve;
    nodes_.push_back(std::make_unique<TcpNode>(std::move(nc)));
  }
  // Every node bound an ephemeral port in its constructor; tell the others.
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    for (std::uint32_t j = 0; j < nodes_.size(); ++j) {
      if (i != j) nodes_[i]->set_peer_port(j, nodes_[j]->listen_port());
    }
  }
}

TcpClusterResult TcpCluster::run() {
  TcpClusterResult result;
  result.per_node.resize(nodes_.size());

  std::vector<std::thread> threads;
  threads.reserve(nodes_.size());
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    threads.emplace_back([this, id, &result] {
      result.per_node[id] = nodes_[id]->run();
    });
  }
  for (std::thread& t : threads) t.join();

  result.exit_code = 0;
  result.quiesced = true;
  for (const TcpNodeResult& node : result.per_node) {
    result.exit_code = std::max(result.exit_code, node.exit_code);
    result.quiesced = result.quiesced && node.quiesced;
    result.wall_time = std::max(result.wall_time, node.wall_time);
    result.metrics.merge_from(node.metrics);
    result.delivery_latency_us.merge_from(node.delivery_latency_us);
    add_net(result.net, node.net);
    add_tcp(result.tcp, node.tcp);
  }
  return result;
}

}  // namespace optrec
