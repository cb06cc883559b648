#include "src/tcp/tcp_cluster.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace optrec {

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
    add_counters(result.net, node.net);
    result.add(node);
  }
  return result;
}

}  // namespace optrec
