// optrec_node — TCP cluster node runner and loopback fleet harness.
//
// Runs the recovery protocols over REAL sockets (src/tcp/): every node is
// an OS process hosting a share of the protocol processes, traffic is
// length-delimited wire frames over nonblocking TCP, and the cluster
// settles through the gossip quiescence protocol (node 0 coordinates).
//
// Three modes:
//
//   --node=all   (default) whole fleet in this process, loopback sockets,
//                ephemeral ports, shared causality oracle + trace auditor.
//                  optrec_node --processes=8 --tcp-nodes=4 --crashes=2
//                      --oracle --audit
//
//   --node=K     one node of a real cluster. Describe the cluster either
//                with --topology=FILE (JSON, see docs/TCP_TRANSPORT.md) or
//                with --tcp-nodes=K --base-port=P (loopback, fixed ports —
//                every node must be started with identical flags).
//                  optrec_node --node=1 --topology=cluster.json
//
//   --spawn      multi-process harness: forks one child per node (each a
//                real `optrec_node --node=K`), optionally SIGKILLs and
//                respawns children mid-run, and folds their exit codes.
//                  optrec_node --spawn --processes=8 --tcp-nodes=4
//                      --retransmit --data-dir=/tmp/fleet --kill=1:400:900
//                (the respawned child runs --recover=warm: it rebuilds from
//                DIR/node-1 and announces its failure at the restored point)
//
// Takes the run flags shared with optrec_sim, plus the TCP-only flags;
// "Run flags" in README.md lists both with defaults and validation.
// --tcp-nodes=1 puts every process on one node: no peer socket opens, and
// the run is the threads backend. Partition groups
// (--partition=AT_MS:HEAL_MS:G0/G1) are NODE ids here; a per-process
// partition runs one process per node (--tcp-nodes=N --processes=N).
// --oracle and --audit need every process in one address space, so they
// are valid only with --node=all. --spawn returns the worst child's exit
// code.
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/harness/run_flags.h"
#include "src/tcp/tcp_cluster.h"
#include "src/telemetry/http_endpoint.h"
#include "src/telemetry/recovery_timeline.h"
#include "src/util/json.h"

using namespace optrec;

namespace {

struct KillSpec {
  std::uint32_t node = 0;
  std::uint64_t at_ms = 0;
  std::uint64_t respawn_ms = 0;  // 0 = never respawn
};

KillSpec parse_kill_spec(const std::string& value) {
  KillSpec spec;
  const std::size_t c1 = value.find(':');
  if (c1 == std::string::npos) {
    throw UsageError("--kill wants NODE:AT_MS[:RESPAWN_MS]");
  }
  const std::size_t c2 = value.find(':', c1 + 1);
  spec.node = static_cast<std::uint32_t>(
      parse_u64(value.substr(0, c1), "--kill node"));
  const std::string at = c2 == std::string::npos
                             ? value.substr(c1 + 1)
                             : value.substr(c1 + 1, c2 - c1 - 1);
  spec.at_ms = parse_u64(at, "--kill at_ms");
  if (c2 != std::string::npos) {
    spec.respawn_ms = parse_u64(value.substr(c2 + 1), "--kill respawn_ms");
    if (spec.respawn_ms <= spec.at_ms) {
      throw UsageError("--kill respawn_ms must be > at_ms");
    }
  }
  return spec;
}

/// The TCP-only flags, with their defaults.
struct NodeFlags {
  std::size_t tcp_nodes = 2;
  std::uint16_t base_port = 0;
  std::string topology_file;
  std::string node_arg = "all";
  bool recover = false;
  std::string data_dir;
  SimTime settle = TcpClusterConfig{}.settle;
  SimTime status_interval = TcpClusterConfig{}.status_interval;
  std::vector<KillSpec> kills;
  bool spawn = false;
  bool print_topology = false;
  bool telemetry = false;
  std::uint16_t telemetry_port = 0;
  std::uint16_t telemetry_base_port = 0;
  bool stats_mode = false;
  std::string stats_target;
  std::string timeline_file;
  std::string trace_dir;
  bool serve = false;
  std::uint16_t service_port = 0;
  std::uint16_t service_base_port = 0;
  std::string write_topology_file;
};

std::string non_empty(const std::string& value, const char* what) {
  if (value.empty()) throw UsageError(what);
  return value;
}

/// One TCP-only flag; false when `arg` is not one. --gc-level also turns
/// on the shared --stability/--gc process settings.
bool parse_node_flag(const char* arg, NodeFlags& nf, RunFlags& flags) {
  std::string v;
  if (parse_flag(arg, "--tcp-nodes", &v)) {
    nf.tcp_nodes = parse_u64(v, "--tcp-nodes");
  } else if (parse_flag(arg, "--base-port", &v)) {
    nf.base_port = parse_port(v, "--base-port");
  } else if (parse_flag(arg, "--topology", &v)) {
    nf.topology_file = non_empty(v, "--topology wants a file name");
  } else if (parse_flag(arg, "--node", &v)) {
    nf.node_arg = v;
  } else if (parse_flag(arg, "--recover", &v)) {
    nf.recover = true;
    if (!v.empty() && v != "warm") {
      throw UsageError("--recover wants no value or =warm");
    }
  } else if (parse_flag(arg, "--data-dir", &v)) {
    nf.data_dir = non_empty(v, "--data-dir wants a directory");
  } else if (parse_flag(arg, "--settle-ms", &v)) {
    nf.settle = millis(parse_u64(v, "--settle-ms"));
  } else if (parse_flag(arg, "--status-ms", &v)) {
    nf.status_interval = millis(parse_u64(v, "--status-ms"));
  } else if (parse_flag(arg, "--kill", &v)) {
    nf.kills.push_back(parse_kill_spec(v));
  } else if (parse_switch(arg, "--spawn")) {
    nf.spawn = true;
  } else if (parse_switch(arg, "--print-topology")) {
    nf.print_topology = true;
  } else if (parse_flag(arg, "--gc-level", &v)) {
    flags.process.enable_stability_tracking = true;
    flags.process.enable_gc = true;
    flags.process.gc.level = scale::parse_gc_level(v);
  } else if (parse_flag(arg, "--telemetry-port", &v)) {
    nf.telemetry_port = parse_port(v, "--telemetry-port");
  } else if (parse_flag(arg, "--telemetry-base-port", &v)) {
    nf.telemetry_base_port = parse_port(v, "--telemetry-base-port");
  } else if (parse_switch(arg, "--telemetry")) {
    nf.telemetry = true;
  } else if (parse_flag(arg, "--stats", &v)) {
    nf.stats_mode = true;
    nf.stats_target = v;
  } else if (parse_flag(arg, "--timeline", &v)) {
    nf.timeline_file = non_empty(v, "--timeline wants a file name");
  } else if (parse_flag(arg, "--trace-dir", &v)) {
    nf.trace_dir = non_empty(v, "--trace-dir wants a directory");
  } else if (parse_switch(arg, "--serve")) {
    nf.serve = true;
  } else if (parse_flag(arg, "--service-port", &v)) {
    nf.service_port = parse_port(v, "--service-port");
  } else if (parse_flag(arg, "--service-base-port", &v)) {
    nf.service_base_port = parse_port(v, "--service-base-port");
  } else if (parse_flag(arg, "--write-topology", &v)) {
    nf.write_topology_file = non_empty(v, "--write-topology wants a file name");
  } else {
    return false;
  }
  return true;
}

/// Flags a --spawn child must not inherit verbatim: they name this
/// process's own outputs, ports or mode, or the harness derives a per-child
/// value for them.
bool forwarded_to_children(const char* arg) {
  static const char* const kHarnessOnly[] = {
      "--oracle",   "--trace",          "--audit",          "--metrics-json",
      "--stats",    "--timeline",       "--trace-dir",      "--base-port",
      "--node",     "--recover",        "--data-dir",       "--spawn",
      "--kill",     "--print-topology", "--telemetry-port", "--service-port",
      "--write-topology"};
  std::string value;
  for (const char* name : kHarnessOnly) {
    if (parse_flag(arg, name, &value)) return false;
  }
  return true;
}

void write_file(const std::string& file, const std::string& text) {
  std::ofstream out(file, std::ios::binary);
  if (!out) die("cannot open '" + file + "'");
  out << text;
  if (!out) die("failed writing '" + file + "'");
}

void make_dir(const std::string& dir, const char* flag) {
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    die(std::string("cannot create ") + flag + " '" + dir + "'");
  }
}

/// --stats: scrape HOST:PORT/cluster and print the live table.
int run_stats_client(const std::string& host, std::uint16_t port) {
  std::string body;
  try {
    body = telemetry::http_get(host, port, "/cluster");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "optrec_node: --stats: %s\n", e.what());
    return 1;
  }
  JsonValue doc;
  try {
    doc = JsonValue::parse(body);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "optrec_node: --stats: bad /cluster JSON: %s\n",
                 e.what());
    return 1;
  }
  std::printf("cluster @ %s:%u  (answering node %llu%s)\n", host.c_str(), port,
              (unsigned long long)doc.u64_or("node", 0),
              doc.find("coordinator") != nullptr &&
                      doc.find("coordinator")->as_bool()
                  ? ", coordinator"
                  : "");
  // One column per status-block field, headed by its /cluster key.
  const auto width = [](const char* key) {
    return static_cast<int>(std::max<std::size_t>(8, std::strlen(key)));
  };
  std::printf("%4s %-5s %8s", "node", "quiet", "age_ms");
  for (const auto& f : NodeStatsBlock::kFields) {
    std::printf(" %*s", width(f.key), f.key);
  }
  std::printf("\n");
  const JsonValue* rows = doc.find("rows");
  if (rows != nullptr) {
    for (const JsonValue& r : rows->as_array()) {
      const JsonValue* quiet = r.find("quiet");
      std::printf("%4llu %-5s %8.1f", (unsigned long long)r.u64_or("node", 0),
                  quiet != nullptr && quiet->as_bool() ? "yes" : "no",
                  static_cast<double>(r.u64_or("age_us", 0)) / 1000.0);
      for (const auto& f : NodeStatsBlock::kFields) {
        std::printf(" %*llu", width(f.key),
                    (unsigned long long)r.u64_or(f.key, 0));
      }
      std::printf("\n");
    }
  }
  return 0;
}

/// Micros since the Unix epoch; anchors per-node traces on a shared clock.
std::uint64_t unix_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// --spawn: fork a child running `--node=K` with the given base argv plus
/// per-node extras (trace file, metrics file).
pid_t spawn_child(const std::vector<std::string>& base_args,
                  std::uint32_t node, bool recover,
                  const std::vector<std::string>& extra) {
  std::vector<std::string> args = base_args;
  args.push_back("--node=" + std::to_string(node));
  if (recover) args.push_back("--recover");
  args.insert(args.end(), extra.begin(), extra.end());
  const pid_t pid = ::fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    std::perror("optrec_node: execv");
    ::_exit(2);
  }
  return pid;
}

int run_spawn_harness(const std::vector<std::string>& base_args,
                      std::size_t tcp_nodes, std::vector<KillSpec> kills,
                      bool verbose,
                      const std::vector<std::vector<std::string>>& extra) {
  std::vector<pid_t> child(tcp_nodes, -1);
  for (std::uint32_t k = 0; k < tcp_nodes; ++k) {
    child[k] = spawn_child(base_args, k, /*recover=*/false, extra[k]);
  }

  // Apply the kill/respawn schedule in event-time order.
  struct HarnessEvent {
    std::uint64_t at_ms = 0;
    std::uint32_t node = 0;
    bool respawn = false;
  };
  std::vector<HarnessEvent> events;
  for (const KillSpec& kill : kills) {
    events.push_back({kill.at_ms, kill.node, false});
    if (kill.respawn_ms > 0) events.push_back({kill.respawn_ms, kill.node, true});
  }
  std::sort(events.begin(), events.end(),
            [](const HarnessEvent& a, const HarnessEvent& b) {
              return a.at_ms < b.at_ms;
            });

  const auto start = std::chrono::steady_clock::now();
  for (const HarnessEvent& event : events) {
    std::this_thread::sleep_until(start +
                                  std::chrono::milliseconds(event.at_ms));
    if (event.respawn) {
      if (verbose) {
        std::fprintf(stderr, "harness: respawning node %u (--recover)\n",
                     event.node);
      }
      child[event.node] =
          spawn_child(base_args, event.node, /*recover=*/true,
                      extra[event.node]);
    } else {
      if (verbose) {
        std::fprintf(stderr, "harness: SIGKILL node %u (pid %d)\n", event.node,
                     (int)child[event.node]);
      }
      ::kill(child[event.node], SIGKILL);
      int status = 0;
      ::waitpid(child[event.node], &status, 0);
      child[event.node] = -1;
    }
  }

  int worst = 0;
  for (std::uint32_t k = 0; k < tcp_nodes; ++k) {
    if (child[k] < 0) continue;  // killed without respawn — expected
    int status = 0;
    if (::waitpid(child[k], &status, 0) < 0) die("waitpid failed");
    int code = 1;
    if (WIFEXITED(status)) code = WEXITSTATUS(status);
    if (verbose || code != 0) {
      std::fprintf(stderr, "harness: node %u exited %d\n", k, code);
    }
    worst = std::max(worst, code);
  }
  return worst;
}

/// The parts of a TCP RunReport both in-process modes share; its blocks
/// point into `report`, which must outlive it.
RunReport tcp_run_report(const RunFlags& flags, std::size_t tcp_nodes,
                       std::optional<std::uint32_t> node,
                       const TcpCounters& report) {
  RunReport o;
  o.backend = "tcp";
  o.protocol = flags.protocol;
  o.workload = flags.workload;
  o.n = flags.n;
  o.seed = flags.seed;
  o.json_config = [node, tcp_nodes](JsonWriter& w) {
    w.kv("mode", node ? "node" : "all");
    if (node) w.kv("node", *node);
    w.kv("tcp_nodes", std::uint64_t{tcp_nodes});
  };
  o.json_blocks = [&report](JsonWriter& w) { report.write_json(w); };
  o.print_extra = [&report] { report.print(); };
  return o;
}

void write_timeline_file(const std::string& file,
                         const std::vector<TraceEvent>& events) {
  std::ofstream out(file, std::ios::binary);
  if (!out) die("cannot open timeline file '" + file + "'");
  telemetry::write_recovery_timeline_json(
      out, telemetry::analyze_recovery_timeline(events));
  if (!out) die("failed writing timeline file '" + file + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const TcpFaultConfig fault_defaults;
  RunFlags flags;
  flags.workload.intensity = 6;
  flags.workload.depth = 48;
  flags.workload.all_seed = true;
  flags.process.flush_interval = millis(10);
  flags.process.checkpoint_interval = millis(50);
  flags.min_delay = fault_defaults.min_delay;
  flags.max_delay = fault_defaults.max_delay;
  flags.time_cap = millis(15000);
  NodeFlags nf;
  if (const auto error =
          parse_run_flags(argc, argv, flags, [&](const char* arg) {
            return parse_node_flag(arg, nf, flags);
          })) {
    die(*error);
  }
  const std::vector<CrashEvent> crash_plan = flags.crash_plan();
  const bool tracing = flags.tracing() || !nf.timeline_file.empty();

  TcpFaultConfig faults = fault_defaults;
  faults.min_delay = flags.min_delay;
  faults.max_delay = flags.max_delay;
  faults.drop_prob = flags.drop_prob;
  faults.duplicate_prob = flags.duplicate_prob;
  faults.partitions = flags.partitions;

  // Resolve the topology every mode agrees on.
  TcpTopology topo;
  try {
    if (!nf.topology_file.empty()) {
      topo = TcpTopology::load(nf.topology_file);
      topo.faults.partitions.insert(topo.faults.partitions.end(),
                                    faults.partitions.begin(),
                                    faults.partitions.end());
      flags.n = topo.n;
      nf.tcp_nodes = topo.nodes.size();
    } else {
      topo = TcpTopology::loopback(flags.n, nf.tcp_nodes, nf.base_port,
                                   "loopback", nf.telemetry_base_port,
                                   nf.service_base_port);
      topo.faults = faults;
    }
  } catch (const std::exception& e) {
    die(std::string("bad topology: ") + e.what());
  }
  if (nf.serve && flags.oracle) {
    die("--serve and --oracle are incompatible (injected client requests "
        "have no oracle send records; optrec_loadgen checks consistency "
        "from the client side instead)");
  }

  // ---- --stats: scrape the coordinator's /cluster table ---------------
  if (nf.stats_mode) {
    std::string host;
    std::uint16_t port = 0;
    if (!nf.stats_target.empty()) {
      const std::size_t colon = nf.stats_target.rfind(':');
      if (colon == std::string::npos) die("--stats wants HOST:PORT");
      host = nf.stats_target.substr(0, colon);
      try {
        port = parse_port(nf.stats_target.substr(colon + 1), "--stats port");
      } catch (const UsageError& e) {
        die(e.what());
      }
    } else {
      const TcpNodeSpec& coord = topo.node(0);
      host = coord.host;
      port = coord.telemetry_port;
      if (port == 0) {
        die("--stats needs an explicit HOST:PORT, a topology that assigns "
            "node 0 a telemetry_port, or --telemetry-base-port");
      }
    }
    return run_stats_client(host, port);
  }

  if (nf.print_topology) {
    std::fputs(topo.to_json().c_str(), stdout);
    return 0;
  }

  // ---- --spawn: multi-process harness --------------------------------
  if (nf.spawn) {
    if (nf.node_arg != "all") die("--spawn and --node are mutually exclusive");
    if (flags.oracle || flags.audit) {
      die("--oracle/--audit need one address space; use --node=all");
    }
    if (!nf.timeline_file.empty()) {
      die("--timeline needs one trace; collect per-node traces with "
          "--trace-dir and run optrec_trace_merge --timeline instead");
    }
    if (flags.metrics_json && flags.metrics_json_file.empty()) {
      die("--spawn needs --metrics-json=FILE (children would interleave "
          "one stdout)");
    }
    for (const KillSpec& kill : nf.kills) {
      if (kill.node >= nf.tcp_nodes) die("--kill names unknown node");
    }
    std::vector<std::string> child_args{"optrec_node"};
    for (int i = 1; i < argc; ++i) {
      if (forwarded_to_children(argv[i])) child_args.push_back(argv[i]);
    }
    std::uint16_t base_port = nf.base_port;
    if (nf.topology_file.empty()) {
      // Children must all compute identical fixed ports; derive a block
      // from the harness pid unless one was given, and hand it down.
      if (base_port == 0) {
        base_port = static_cast<std::uint16_t>(
            20000 + (static_cast<std::uint32_t>(::getpid()) * 131) % 20000);
      }
      child_args.push_back("--base-port=" + std::to_string(base_port));
      if (nf.telemetry && nf.telemetry_base_port == 0) {
        // The children's scrape ports must be knowable; carve a block
        // right above the data ports.
        nf.telemetry_base_port =
            static_cast<std::uint16_t>(base_port + nf.tcp_nodes);
        child_args.push_back("--telemetry-base-port=" +
                             std::to_string(nf.telemetry_base_port));
      }
      if (nf.serve && nf.service_base_port == 0) {
        // Clients must be able to compute every node's service port; carve
        // a block above the telemetry ports (data, telemetry, service).
        nf.service_base_port =
            static_cast<std::uint16_t>(base_port + 2 * nf.tcp_nodes);
        child_args.push_back("--service-base-port=" +
                             std::to_string(nf.service_base_port));
      }
      // Re-resolve with the carved port blocks so clients read real ports.
      topo = TcpTopology::loopback(flags.n, nf.tcp_nodes, base_port,
                                   "loopback", nf.telemetry_base_port,
                                   nf.service_base_port);
      topo.faults = faults;
    }
    if (flags.verbose && nf.telemetry && nf.telemetry_base_port != 0) {
      std::fprintf(stderr,
                   "harness: telemetry on 127.0.0.1:%u..%u (/metrics)\n",
                   nf.telemetry_base_port,
                   nf.telemetry_base_port + (unsigned)nf.tcp_nodes - 1);
    }
    if (flags.verbose && nf.serve && nf.service_base_port != 0) {
      std::fprintf(stderr, "harness: service on 127.0.0.1:%u..%u\n",
                   nf.service_base_port,
                   nf.service_base_port + (unsigned)nf.tcp_nodes - 1);
    }
    if (!nf.write_topology_file.empty()) {
      write_file(nf.write_topology_file, topo.to_json());
    }
    if (!nf.trace_dir.empty()) make_dir(nf.trace_dir, "--trace-dir");
    if (!nf.data_dir.empty()) make_dir(nf.data_dir, "--data-dir");
    std::vector<std::vector<std::string>> extra(nf.tcp_nodes);
    for (std::uint32_t k = 0; k < nf.tcp_nodes; ++k) {
      const std::string node = std::to_string(k);
      if (!nf.trace_dir.empty()) {
        extra[k].push_back("--trace=" + nf.trace_dir + "/node-" + node +
                           ".jsonl");
      }
      if (!nf.data_dir.empty()) {
        extra[k].push_back("--data-dir=" + nf.data_dir + "/node-" + node);
      }
      if (flags.metrics_json) {
        extra[k].push_back("--metrics-json=" + flags.metrics_json_file +
                           ".node" + node);
      }
    }
    return run_spawn_harness(child_args, nf.tcp_nodes, nf.kills,
                             flags.verbose, extra);
  }

  if (!nf.write_topology_file.empty()) {
    write_file(nf.write_topology_file, topo.to_json());
  }

  // ---- --node=K: one node of the cluster -----------------------------
  if (nf.node_arg != "all") {
    std::uint32_t node = 0;
    try {
      node = static_cast<std::uint32_t>(parse_u64(nf.node_arg, "--node"));
    } catch (const UsageError& e) {
      die(e.what());
    }
    if (node >= topo.nodes.size()) die("--node out of range");
    if (flags.oracle || flags.audit) {
      die("--oracle/--audit need one address space; use --node=all");
    }
    if (nf.topology_file.empty() && nf.base_port == 0) {
      die("--node=K needs --topology=FILE or a fixed --base-port");
    }

    TcpNodeConfig nc;
    nc.topology = topo;
    nc.node = node;
    nc.seed = flags.seed;
    nc.protocol = flags.protocol;
    nc.workload = flags.workload;
    nc.process = flags.process;
    // A recovered incarnation announces its own failure; the scheduled
    // crash plan belonged to the incarnation the kill replaced.
    if (!nf.recover) nc.crashes = crash_plan;
    nc.recover = nf.recover;
    nc.data_dir = nf.data_dir;
    nc.time_cap = flags.time_cap;
    nc.settle = nf.settle;
    nc.status_interval = nf.status_interval;
    nc.telemetry = nf.telemetry;
    nc.telemetry_port = nf.telemetry_port;
    nc.serve = nf.serve;
    nc.service_port = nf.service_port;
    std::unique_ptr<TraceRecorder> trace;
    if (tracing) {
      trace = std::make_unique<TraceRecorder>();
      nc.trace = trace.get();
    }

    TcpNode runner(std::move(nc));
    if (trace != nullptr) {
      // Stamp every event with this node's id and a wall-clock origin so
      // per-node JSONL files merge (optrec_trace_merge) on a shared axis.
      trace->set_origin(node, unix_micros() - runner.clock().now());
    }
    if (flags.verbose && runner.telemetry_port() != 0) {
      std::fprintf(stderr, "node %u: telemetry on %s:%u\n", node,
                   topo.node(node).host.c_str(), runner.telemetry_port());
    }
    if (flags.verbose && runner.service_port() != 0) {
      std::fprintf(stderr, "node %u: service on %s:%u\n", node,
                   topo.node(node).host.c_str(), runner.service_port());
    }
    if (!flags.metrics_json) {
      announce_run(("node " + std::to_string(node)).c_str(), flags);
    }
    const TcpNodeResult result = runner.run();
    if (trace != nullptr && !nf.timeline_file.empty()) {
      write_timeline_file(nf.timeline_file, trace->events());
    }
    RunReport o = tcp_run_report(flags, nf.tcp_nodes, node, result);
    o.crashes_planned = crash_plan.size();
    o.exit_code = result.exit_code;
    o.quiesced = result.quiesced;
    o.run_time = result.wall_time;
    o.metrics = result.metrics;
    o.net = result.net;
    o.latency = &result.delivery_latency_us;
    if (trace != nullptr) o.trace = &trace->events();
    return finish_run(flags, std::move(o));
  }

  // ---- --node=all: whole fleet in-process ----------------------------
  if (nf.recover) die("--recover only makes sense with --node=K");
  if (!nf.topology_file.empty()) {
    die("--node=all generates its own loopback topology; run per-node "
        "processes for --topology");
  }
  if (!nf.trace_dir.empty()) die("--trace-dir is for --spawn; use --trace=FILE");

  TcpClusterConfig config;
  config.n = flags.n;
  config.nodes = nf.tcp_nodes;
  config.seed = flags.seed;
  config.protocol = flags.protocol;
  config.workload = flags.workload;
  config.process = flags.process;
  config.faults = faults;
  config.crashes = crash_plan;
  config.time_cap = flags.time_cap;
  config.settle = nf.settle;
  config.status_interval = nf.status_interval;
  config.enable_oracle = flags.oracle;
  config.enable_trace = tracing;
  config.telemetry = nf.telemetry;
  config.telemetry_base_port = nf.telemetry_base_port;
  config.serve = nf.serve;
  config.service_base_port = nf.service_base_port;
  if (!nf.data_dir.empty()) {
    make_dir(nf.data_dir, "--data-dir");
    config.data_dir = nf.data_dir;
  }

  if (!flags.metrics_json) announce_run("tcp", flags);
  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();

  const std::vector<TraceEvent>* events =
      cluster.trace() != nullptr ? &cluster.trace()->events() : nullptr;
  if (events != nullptr && !nf.timeline_file.empty()) {
    write_timeline_file(nf.timeline_file, *events);
  }

  // Cluster-wide durable totals: in-process runs always start fresh, so
  // this is the write-path footprint, not a recovery report.
  RunReport o = tcp_run_report(flags, nf.tcp_nodes, std::nullopt, result);
  o.crashes_planned = crash_plan.size();
  // Serving fleets never quiesce (the cap is their scheduled end); take the
  // nodes' own verdict instead of recomputing 4 from !quiesced.
  o.exit_code = nf.serve ? result.exit_code : result.quiesced ? 0 : 4;
  o.quiesced = result.quiesced;
  o.run_time = result.wall_time;
  o.metrics = result.metrics;
  o.net = result.net;
  o.latency = &result.delivery_latency_us;
  if (cluster.oracle() != nullptr) {
    o.oracle_enabled = true;
    o.oracle_states = cluster.oracle()->state_count();
    o.violations = cluster.oracle()->check_consistency();
  }
  o.trace = events;
  return finish_run(flags, std::move(o));
}
