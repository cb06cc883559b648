// Runtime throughput/latency bench over loopback TcpCluster fleets.
//
// Not a google-benchmark microbenchmark: each measurement drives a real
// fleet (one TcpNode per node id, ephemeral ports, the gossip quiescence
// protocol), so one run IS the timed unit. With --nodes=1 one node hosts
// every process and opens no peer socket: that fleet is the threads
// backend. Every protocol runs the same workload twice — failure-free, and
// with two injected crashes — and we report wall-clock throughput,
// delivery-latency percentiles, exact piggyback bytes per message,
// recovery time, and the socket-layer counters (frames, bytes, token
// retries). A channel fan-in sweep follows (n = 2/5/17).
//
// Emits BENCH_tcp.json (override with --out=FILE) for CI artifact upload;
// prints a human-readable table to stdout. Exits non-zero if any run fails
// to quiesce, so CI catches runtime regressions.
//
// Topology-file mode (scripts/run_tcp_bench.sh drives it): --topology=FILE
// skips the in-process sweep and instead runs the fleet the file describes
// on its fixed ports — every node in this process with --node=all, or just
// node K with --node=K so each machine of a real multi-NIC fleet runs its
// own bench process against the shared file. --protocol/--workload pick the
// single configuration to run (the sweep makes no sense across machines).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "src/harness/failure_plan.h"
#include "src/tcp/tcp_cluster.h"
#include "src/util/json.h"

using namespace optrec;

namespace {

/// The protocols the sweep compares.
constexpr ProtocolKind kProtocols[] = {
    ProtocolKind::kDamaniGarg,
    ProtocolKind::kPessimistic,
    ProtocolKind::kCoordinated,
    ProtocolKind::kCascading,
};

/// One fleet run: a row of the tables and of the BENCH_tcp.json "results".
struct Row {
  const char* protocol = "";
  const char* phase = "";
  std::size_t producers = 0;  // per-channel fan-in: n - 1
  bool quiesced = false;
  std::uint64_t delivered = 0;
  SimTime wall_us = 0;
  double msgs_per_sec = 0;
  bench::LatencySummary latency;
  double piggyback_per_msg = 0;
  double recovery_mean_us = 0;
  double recovery_max_us = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t frames_tx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t token_retries = 0;
};

Row make_row(ProtocolKind protocol, const char* phase, std::size_t n,
             bool quiesced, SimTime wall_us, const Metrics& m,
             const telemetry::FixedHistogram& latency,
             const TcpTransport::TcpStats& tcp) {
  Row row;
  row.protocol = protocol_name(protocol);
  row.phase = phase;
  row.producers = n - 1;
  row.quiesced = quiesced;
  row.delivered = m.messages_delivered;
  row.wall_us = wall_us;
  const double wall_s = static_cast<double>(wall_us) / 1e6;
  row.msgs_per_sec =
      wall_s > 0 ? static_cast<double>(row.delivered) / wall_s : 0.0;
  row.latency = bench::LatencySummary::of(latency);
  row.piggyback_per_msg = m.piggyback_per_message();
  row.recovery_mean_us = m.restart_latency.mean();
  row.recovery_max_us = m.restart_latency.max();
  row.rollbacks = m.rollbacks;
  row.frames_tx = tcp.frames_tx;
  row.bytes_tx = tcp.bytes_tx;
  row.token_retries = tcp.token_retries;
  return row;
}

Row run_one(ProtocolKind protocol, std::size_t n, std::size_t nodes,
            std::uint64_t seed, std::size_t crashes) {
  TcpClusterConfig config;
  config.n = n;
  config.nodes = nodes;
  config.seed = seed;
  config.protocol = protocol;
  config.workload.intensity = 6;
  config.workload.depth = 48;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(10);
  config.process.checkpoint_interval = millis(50);
  config.process.retransmit_on_failure = crashes > 0;
  config.enable_oracle = false;
  config.time_cap = millis(30000);
  if (crashes > 0) {
    Rng rng(seed * 977 + 3);
    config.crashes =
        FailurePlan::random(rng, n, crashes, millis(20), millis(120)).crashes;
  }

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  return make_row(protocol, crashes > 0 ? "crashes" : "failure_free", n,
                  result.quiesced, result.wall_time, result.metrics,
                  result.delivery_latency_us, result.tcp);
}

Row row_of_node_results(ProtocolKind protocol, const char* phase,
                        std::size_t n,
                        const std::vector<TcpNodeResult>& nodes) {
  bool quiesced = true;
  SimTime wall_us = 0;
  Metrics metrics;
  telemetry::FixedHistogram latency;
  TcpTransport::TcpStats tcp;
  for (const TcpNodeResult& node : nodes) {
    quiesced = quiesced && node.quiesced;
    wall_us = std::max(wall_us, node.wall_time);
    metrics.merge_from(node.metrics);
    latency.merge_from(node.delivery_latency_us);
    add_counters(tcp, node.tcp);
  }
  return make_row(protocol, phase, n, quiesced, wall_us, metrics, latency,
                  tcp);
}

/// The per-protocol table, then the fan-in sweep table when there is one.
void print_tables(const std::vector<Row>& rows, const std::vector<Row>& fanin) {
  const auto fmt = TablePrinter::fmt;
  TablePrinter table({"protocol", "phase", "msgs/s", "p50 us", "p90 us",
                      "p99 us", "piggyback B/msg", "recovery ms", "rollbacks",
                      "tok-retry", "quiesced"});
  for (const Row& r : rows) {
    table.add_row({r.protocol, r.phase, fmt(r.msgs_per_sec, 0),
                   fmt(r.latency.p50, 0), fmt(r.latency.p90, 0),
                   fmt(r.latency.p99, 0), fmt(r.piggyback_per_msg, 1),
                   fmt(r.recovery_mean_us / 1000.0, 2),
                   std::to_string(r.rollbacks),
                   std::to_string(r.token_retries),
                   r.quiesced ? "yes" : "NO"});
  }
  table.print(std::cout);
  if (fanin.empty()) return;

  std::printf("\nchannel fan-in sweep (dg, failure-free):\n");
  TablePrinter fanin_table({"producers/chan", "msgs/s", "p50 us", "p90 us",
                            "p99 us", "quiesced"});
  for (const Row& r : fanin) {
    fanin_table.add_row({std::to_string(r.producers), fmt(r.msgs_per_sec, 0),
                         fmt(r.latency.p50, 0), fmt(r.latency.p90, 0),
                         fmt(r.latency.p99, 0), r.quiesced ? "yes" : "NO"});
  }
  fanin_table.print(std::cout);
}

/// The "results" array of BENCH_tcp.json.
void write_rows(JsonWriter& w, const std::vector<Row>& rows) {
  w.key("results").begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.kv("protocol", r.protocol);
    w.kv("phase", r.phase);
    w.kv("producers_per_channel", std::uint64_t{r.producers});
    w.kv("quiesced", r.quiesced);
    w.kv("messages_delivered", r.delivered);
    w.kv("wall_time_us", r.wall_us);
    w.kv("msgs_per_sec", r.msgs_per_sec);
    bench::write_latency_fields(w, "delivery_latency", r.latency);
    w.kv("piggyback_bytes_per_msg", r.piggyback_per_msg);
    w.kv("recovery_mean_us", r.recovery_mean_us);
    w.kv("recovery_max_us", r.recovery_max_us);
    w.kv("rollbacks", r.rollbacks);
    w.kv("tcp_frames_tx", r.frames_tx);
    w.kv("tcp_bytes_tx", r.bytes_tx);
    w.kv("tcp_token_retries", r.token_retries);
    w.end_object();
  }
  w.end_array();
}

/// Run the fleet a topology file describes on its fixed ports: all nodes in
/// this process, or one node of a fleet whose peers run elsewhere.
Row run_topology(const TcpTopology& topo, const std::string& node_arg,
                 ProtocolKind protocol, WorkloadKind workload,
                 std::uint64_t seed) {
  WorkloadSpec wl;
  wl.kind = workload;
  wl.intensity = 6;
  wl.depth = 48;
  wl.all_seed = true;
  ProcessConfig process;
  process.flush_interval = millis(10);
  process.checkpoint_interval = millis(50);

  std::vector<std::uint32_t> ids;
  if (node_arg == "all") {
    for (std::uint32_t id = 0; id < topo.nodes.size(); ++id) ids.push_back(id);
  } else {
    ids.push_back(
        static_cast<std::uint32_t>(std::strtoul(node_arg.c_str(), nullptr, 10)));
  }

  std::vector<std::unique_ptr<TcpNode>> nodes;
  for (std::uint32_t id : ids) {
    TcpNodeConfig nc;
    nc.topology = topo;
    nc.node = id;
    nc.seed = seed;
    nc.protocol = protocol;
    nc.workload = wl;
    nc.process = process;
    nc.time_cap = millis(30000);
    nodes.push_back(std::make_unique<TcpNode>(std::move(nc)));
  }
  std::vector<TcpNodeResult> results(nodes.size());
  std::vector<std::thread> threads;
  threads.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    threads.emplace_back([&, i] { results[i] = nodes[i]->run(); });
  }
  for (std::thread& t : threads) t.join();
  return row_of_node_results(protocol,
                             node_arg == "all" ? "topology" : "topology_node",
                             topo.n, results);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_file = "BENCH_tcp.json";
  std::size_t n = 8;
  std::size_t nodes = 4;
  std::uint64_t seed = 1;
  std::size_t crashes = 2;
  std::string topology_file;
  std::string node_arg = "all";
  std::string protocol_arg = "dg";
  std::string workload_arg = "counter";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_file = arg + 6;
    } else if (std::strncmp(arg, "--n=", 4) == 0) {
      n = std::strtoull(arg + 4, nullptr, 10);
    } else if (std::strncmp(arg, "--nodes=", 8) == 0) {
      nodes = std::strtoull(arg + 8, nullptr, 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--crashes=", 10) == 0) {
      crashes = std::strtoull(arg + 10, nullptr, 10);
    } else if (std::strncmp(arg, "--topology=", 11) == 0) {
      topology_file = arg + 11;
    } else if (std::strncmp(arg, "--node=", 7) == 0) {
      node_arg = arg + 7;
    } else if (std::strncmp(arg, "--protocol=", 11) == 0) {
      protocol_arg = arg + 11;
    } else if (std::strncmp(arg, "--workload=", 11) == 0) {
      workload_arg = arg + 11;
    } else {
      std::fprintf(stderr,
                   "bench_tcp_throughput: unknown flag '%s' "
                   "(--out= --n= --nodes= --seed= --crashes= --topology= "
                   "--node= --protocol= --workload=)\n",
                   arg);
      return 2;
    }
  }

  std::vector<Row> rows;
  std::vector<Row> fanin_rows;
  if (!topology_file.empty()) {
    TcpTopology topo;
    try {
      topo = TcpTopology::load(topology_file);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_tcp_throughput: bad topology: %s\n",
                   e.what());
      return 2;
    }
    for (const TcpNodeSpec& spec : topo.nodes) {
      if (spec.port == 0) {
        std::fprintf(stderr,
                     "bench_tcp_throughput: topology node %u has no fixed "
                     "port; --topology mode needs concrete ports (generate "
                     "the file with optrec_node --base-port=P "
                     "--print-topology)\n",
                     spec.id);
        return 2;
      }
    }
    WorkloadKind workload;
    if (workload_arg == "counter") {
      workload = WorkloadKind::kCounter;
    } else if (workload_arg == "pingpong") {
      workload = WorkloadKind::kPingPong;
    } else if (workload_arg == "bank") {
      workload = WorkloadKind::kBank;
    } else if (workload_arg == "gossip") {
      workload = WorkloadKind::kGossip;
    } else {
      // The client-driven service workload has no self-seeded traffic;
      // point optrec_loadgen at optrec_node --serve for that (SERVICE.md).
      std::fprintf(stderr, "bench_tcp_throughput: unknown workload '%s'\n",
                   workload_arg.c_str());
      return 2;
    }
    ProtocolKind protocol;
    try {
      protocol = protocol_from_name(protocol_arg);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bench_tcp_throughput: %s\n", e.what());
      return 2;
    }
    std::printf(
        "bench_tcp_throughput: topology=%s node=%s protocol=%s workload=%s "
        "n=%zu nodes=%zu seed=%llu\n\n",
        topology_file.c_str(), node_arg.c_str(), protocol_name(protocol),
        workload_arg.c_str(), topo.n, topo.nodes.size(),
        (unsigned long long)seed);
    rows.push_back(run_topology(topo, node_arg, protocol, workload, seed));
    n = topo.n;
  } else {
  std::printf("bench_tcp_throughput: n=%zu nodes=%zu seed=%llu crashes=%zu\n\n",
              n, nodes, (unsigned long long)seed, crashes);

  for (ProtocolKind protocol : kProtocols) {
    rows.push_back(run_one(protocol, n, nodes, seed, 0));
    rows.push_back(run_one(protocol, n, nodes, seed, crashes));
  }
  // Channel fan-in sweep: n = 2/5/17 processes puts 1/4/16 producers on
  // every inbox channel and per-peer outbound ring, over real loopback
  // sockets.
  for (std::size_t fanin_n : {std::size_t{2}, std::size_t{5},
                              std::size_t{17}}) {
    Row row = run_one(ProtocolKind::kDamaniGarg, fanin_n,
                      std::min(nodes, fanin_n), seed, 0);
    row.phase = "fanin";
    fanin_rows.push_back(row);
  }
  }

  print_tables(rows, fanin_rows);
  rows.insert(rows.end(), fanin_rows.begin(), fanin_rows.end());

  std::ofstream os(out_file, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "bench_tcp_throughput: cannot open '%s'\n",
                 out_file.c_str());
    return 2;
  }
  JsonWriter w(os);
  w.begin_object();
  bench::write_bench_preamble(w, "tcp");
  w.key("config").begin_object();
  w.kv("backend", "tcp");
  w.kv("n", std::uint64_t{n});
  w.kv("nodes", std::uint64_t{nodes});
  w.kv("seed", seed);
  w.kv("crashes", std::uint64_t{crashes});
  w.kv("workload", topology_file.empty() ? "counter" : workload_arg.c_str());
  if (!topology_file.empty()) {
    w.kv("topology", topology_file);
    w.kv("node", node_arg);
  }
  w.end_object();
  write_rows(w, rows);
  w.end_object();
  os << "\n";
  os.flush();
  std::printf("\nwrote %s\n", out_file.c_str());
  for (const Row& r : rows) {
    if (!r.quiesced) {
      std::fprintf(stderr, "FAIL: %s/%s did not quiesce\n", r.protocol,
                   r.phase);
      return 1;
    }
  }
  return 0;
}
