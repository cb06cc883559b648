#include "src/tcp/topology.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace optrec {

namespace {

std::uint64_t require_u64(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    throw std::invalid_argument("topology: missing '" + key + "'");
  }
  return v->as_u64();
}

double double_or(const JsonValue& obj, const std::string& key,
                 double fallback) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? fallback : v->as_double();
}

PartitionEvent partition_from_json(const JsonValue& v) {
  PartitionEvent event;
  event.at = millis(require_u64(v, "at_ms"));
  event.heal_at = millis(require_u64(v, "heal_ms"));
  if (event.heal_at <= event.at) {
    throw std::invalid_argument("topology: partition heal_ms must be > at_ms");
  }
  const JsonValue* groups = v.find("groups");
  if (groups == nullptr) {
    throw std::invalid_argument("topology: partition missing 'groups'");
  }
  for (const JsonValue& group : groups->as_array()) {
    std::vector<ProcessId> ids;
    for (const JsonValue& id : group.as_array()) {
      ids.push_back(static_cast<ProcessId>(id.as_u64()));
    }
    event.groups.push_back(std::move(ids));
  }
  if (event.groups.size() < 2) {
    throw std::invalid_argument("topology: partition wants >= 2 groups");
  }
  return event;
}

}  // namespace

void TcpTopology::validate() const {
  if (n == 0) throw std::invalid_argument("topology: zero processes");
  if (nodes.empty()) throw std::invalid_argument("topology: zero nodes");
  std::vector<int> owner(n, -1);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const TcpNodeSpec& spec = nodes[i];
    if (spec.id != i) {
      throw std::invalid_argument("topology: node ids must be 0..k-1 in order");
    }
    if (spec.processes.empty()) {
      throw std::invalid_argument("topology: node " + std::to_string(i) +
                                  " hosts no processes");
    }
    for (ProcessId pid : spec.processes) {
      if (pid >= n) {
        throw std::invalid_argument("topology: process id " +
                                    std::to_string(pid) + " out of range");
      }
      if (owner[pid] != -1) {
        throw std::invalid_argument("topology: process " +
                                    std::to_string(pid) + " hosted twice");
      }
      owner[pid] = static_cast<int>(i);
    }
  }
  for (ProcessId pid = 0; pid < n; ++pid) {
    if (owner[pid] == -1) {
      throw std::invalid_argument("topology: process " + std::to_string(pid) +
                                  " hosted nowhere");
    }
  }
  for (const PartitionEvent& event : faults.partitions) {
    for (const auto& group : event.groups) {
      for (ProcessId id : group) {
        if (id >= nodes.size()) {
          throw std::invalid_argument(
              "topology: partition group names unknown node " +
              std::to_string(id));
        }
      }
    }
  }
}

std::uint32_t TcpTopology::node_of(ProcessId pid) const {
  for (const TcpNodeSpec& spec : nodes) {
    for (ProcessId p : spec.processes) {
      if (p == pid) return spec.id;
    }
  }
  throw std::out_of_range("topology: unknown process " + std::to_string(pid));
}

TcpTopology TcpTopology::loopback(std::size_t n, std::size_t k,
                                  std::uint16_t base_port,
                                  std::string cluster,
                                  std::uint16_t telemetry_base_port,
                                  std::uint16_t service_base_port) {
  if (k == 0 || n < k) {
    throw std::invalid_argument("loopback topology wants 1 <= nodes <= n");
  }
  TcpTopology topo;
  topo.cluster = std::move(cluster);
  topo.n = n;
  // Contiguous blocks, remainder spread over the first nodes: 10 over 4 is
  // {0,1,2} {3,4,5} {6,7} {8,9}.
  const std::size_t base = n / k;
  const std::size_t extra = n % k;
  ProcessId next = 0;
  for (std::size_t i = 0; i < k; ++i) {
    TcpNodeSpec spec;
    spec.id = static_cast<std::uint32_t>(i);
    spec.host = "127.0.0.1";
    spec.port = base_port == 0
                    ? 0
                    : static_cast<std::uint16_t>(base_port + i);
    spec.telemetry_port =
        telemetry_base_port == 0
            ? 0
            : static_cast<std::uint16_t>(telemetry_base_port + i);
    spec.service_port =
        service_base_port == 0
            ? 0
            : static_cast<std::uint16_t>(service_base_port + i);
    const std::size_t count = base + (i < extra ? 1 : 0);
    for (std::size_t j = 0; j < count; ++j) spec.processes.push_back(next++);
    topo.nodes.push_back(std::move(spec));
  }
  topo.validate();
  return topo;
}

TcpTopology TcpTopology::from_json(const JsonValue& v) {
  TcpTopology topo;
  if (const JsonValue* cluster = v.find("cluster")) {
    topo.cluster = cluster->as_string();
  }
  topo.n = require_u64(v, "processes");
  const JsonValue* nodes = v.find("nodes");
  if (nodes == nullptr) throw std::invalid_argument("topology: missing 'nodes'");
  for (const JsonValue& node : nodes->as_array()) {
    TcpNodeSpec spec;
    spec.id = static_cast<std::uint32_t>(require_u64(node, "id"));
    if (const JsonValue* host = node.find("host")) {
      spec.host = host->as_string();
    }
    spec.port = static_cast<std::uint16_t>(node.u64_or("port", 0));
    spec.telemetry_port =
        static_cast<std::uint16_t>(node.u64_or("telemetry_port", 0));
    spec.service_port =
        static_cast<std::uint16_t>(node.u64_or("service_port", 0));
    const JsonValue* procs = node.find("processes");
    if (procs == nullptr) {
      throw std::invalid_argument("topology: node missing 'processes'");
    }
    for (const JsonValue& pid : procs->as_array()) {
      spec.processes.push_back(static_cast<ProcessId>(pid.as_u64()));
    }
    topo.nodes.push_back(std::move(spec));
  }
  if (const JsonValue* faults = v.find("faults")) {
    TcpFaultConfig& f = topo.faults;
    f.min_delay = micros(faults->u64_or("min_delay_us", 50));
    f.max_delay = micros(faults->u64_or("max_delay_us", 2000));
    f.drop_prob = double_or(*faults, "drop", 0.0);
    f.duplicate_prob = double_or(*faults, "dup", 0.0);
    f.retry_interval = micros(faults->u64_or("retry_us", 2000));
    f.token_retry = micros(faults->u64_or("token_retry_us", 25000));
    f.reconnect_min = micros(faults->u64_or("reconnect_min_us", 10000));
    f.reconnect_max = micros(faults->u64_or("reconnect_max_us", 2000000));
    f.outbound_cap_frames =
        static_cast<std::size_t>(faults->u64_or("outbound_cap_frames", 8192));
    if (const JsonValue* partitions = faults->find("partitions")) {
      for (const JsonValue& p : partitions->as_array()) {
        f.partitions.push_back(partition_from_json(p));
      }
    }
  }
  topo.validate();
  return topo;
}

TcpTopology TcpTopology::parse(std::string_view text) {
  return from_json(JsonValue::parse(text));
}

TcpTopology TcpTopology::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

std::string TcpTopology::to_json() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("cluster", cluster);
  w.kv("processes", static_cast<std::uint64_t>(n));
  w.key("nodes").begin_array();
  for (const TcpNodeSpec& spec : nodes) {
    w.begin_object();
    w.kv("id", spec.id);
    w.kv("host", spec.host);
    w.kv("port", static_cast<std::uint64_t>(spec.port));
    if (spec.telemetry_port != 0) {
      w.kv("telemetry_port", static_cast<std::uint64_t>(spec.telemetry_port));
    }
    if (spec.service_port != 0) {
      w.kv("service_port", static_cast<std::uint64_t>(spec.service_port));
    }
    w.key("processes").begin_array();
    for (ProcessId pid : spec.processes) {
      w.value(static_cast<std::uint64_t>(pid));
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("faults").begin_object();
  w.kv("min_delay_us", faults.min_delay);
  w.kv("max_delay_us", faults.max_delay);
  w.kv("drop", faults.drop_prob);
  w.kv("dup", faults.duplicate_prob);
  w.kv("retry_us", faults.retry_interval);
  w.kv("token_retry_us", faults.token_retry);
  w.kv("reconnect_min_us", faults.reconnect_min);
  w.kv("reconnect_max_us", faults.reconnect_max);
  w.kv("outbound_cap_frames",
       static_cast<std::uint64_t>(faults.outbound_cap_frames));
  w.key("partitions").begin_array();
  for (const PartitionEvent& event : faults.partitions) {
    w.begin_object();
    w.kv("at_ms", event.at / 1000);
    w.kv("heal_ms", event.heal_at / 1000);
    w.key("groups").begin_array();
    for (const auto& group : event.groups) {
      w.begin_array();
      for (ProcessId id : group) w.value(static_cast<std::uint64_t>(id));
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  os << "\n";
  return os.str();
}

}  // namespace optrec
