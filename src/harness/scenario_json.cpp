#include "src/harness/scenario_json.h"

#include <sstream>
#include <stdexcept>

namespace optrec {

namespace {

bool bool_or(const JsonValue& obj, const std::string& k, bool fallback) {
  const JsonValue* v = obj.find(k);
  return v != nullptr ? v->as_bool() : fallback;
}

double double_or(const JsonValue& obj, const std::string& k, double fallback) {
  const JsonValue* v = obj.find(k);
  return v != nullptr ? v->as_double() : fallback;
}

}  // namespace

void write_scenario_json(JsonWriter& w, const ScenarioConfig& c) {
  w.begin_object();
  w.kv("n", std::uint64_t{c.n});
  w.kv("seed", c.seed);
  w.kv("protocol", protocol_name(c.protocol));

  w.key("workload").begin_object();
  w.kv("kind", c.workload.name());
  w.kv("intensity", std::uint64_t{c.workload.intensity});
  w.kv("depth", std::uint64_t{c.workload.depth});
  w.kv("payload_pad", std::uint64_t{c.workload.payload_pad});
  w.kv("all_seed", c.workload.all_seed);
  w.end_object();

  w.key("process").begin_object();
  w.kv("checkpoint_interval_us", c.process.checkpoint_interval);
  w.kv("flush_interval_us", c.process.flush_interval);
  w.kv("restart_delay_us", c.process.restart_delay);
  w.kv("retransmit_on_failure", c.process.retransmit_on_failure);
  w.kv("discard_rollback_suffix", c.process.discard_rollback_suffix);
  w.kv("ablation_disable_postponement", c.process.ablation_disable_postponement);
  w.kv("ablation_skip_obsolete_filter", c.process.ablation_skip_obsolete_filter);
  w.kv("enable_stability_tracking", c.process.enable_stability_tracking);
  w.kv("stability_gossip_interval_us", c.process.stability_gossip_interval);
  w.kv("enable_gc", c.process.enable_gc);
  w.end_object();

  w.key("network").begin_object();
  w.kv("min_delay_us", c.network.min_delay);
  w.kv("max_delay_us", c.network.max_delay);
  w.kv("fifo", c.network.fifo);
  w.kv("drop_prob", c.network.drop_prob);
  w.kv("retry_interval_us", c.network.retry_interval);
  w.end_object();

  w.key("failures").begin_object();
  w.key("crashes").begin_array();
  for (const CrashEvent& e : c.failures.crashes) {
    w.begin_object();
    w.kv("at_us", e.at);
    w.kv("pid", std::uint64_t{e.pid});
    w.end_object();
  }
  w.end_array();
  w.key("partitions").begin_array();
  for (const PartitionEvent& e : c.failures.partitions) {
    w.begin_object();
    w.kv("at_us", e.at);
    w.kv("heal_at_us", e.heal_at);
    w.key("groups").begin_array();
    for (const auto& group : e.groups) {
      w.begin_array();
      for (ProcessId pid : group) w.value(std::uint64_t{pid});
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.kv("time_cap_us", c.time_cap);
  w.kv("settle_slice_us", c.settle_slice);
  w.end_object();
}

std::string scenario_to_json(const ScenarioConfig& config) {
  std::ostringstream os;
  JsonWriter w(os);
  write_scenario_json(w, config);
  os << '\n';
  return os.str();
}

ScenarioConfig scenario_from_json(const JsonValue& v) {
  ScenarioConfig c;
  c.n = static_cast<std::size_t>(v.u64_or("n", c.n));
  c.seed = v.u64_or("seed", c.seed);
  if (const JsonValue* p = v.find("protocol")) {
    c.protocol = protocol_from_name(p->as_string());
  }

  if (const JsonValue* wl = v.find("workload")) {
    if (const JsonValue* k = wl->find("kind")) {
      c.workload.kind = workload_from_name(k->as_string());
    }
    c.workload.intensity =
        static_cast<std::uint32_t>(wl->u64_or("intensity", c.workload.intensity));
    c.workload.depth =
        static_cast<std::uint32_t>(wl->u64_or("depth", c.workload.depth));
    c.workload.payload_pad = static_cast<std::uint32_t>(
        wl->u64_or("payload_pad", c.workload.payload_pad));
    c.workload.all_seed = bool_or(*wl, "all_seed", c.workload.all_seed);
  }

  if (const JsonValue* p = v.find("process")) {
    c.process.checkpoint_interval =
        p->u64_or("checkpoint_interval_us", c.process.checkpoint_interval);
    c.process.flush_interval =
        p->u64_or("flush_interval_us", c.process.flush_interval);
    c.process.restart_delay =
        p->u64_or("restart_delay_us", c.process.restart_delay);
    c.process.retransmit_on_failure =
        bool_or(*p, "retransmit_on_failure", c.process.retransmit_on_failure);
    c.process.discard_rollback_suffix =
        bool_or(*p, "discard_rollback_suffix", c.process.discard_rollback_suffix);
    c.process.ablation_disable_postponement =
        bool_or(*p, "ablation_disable_postponement",
                c.process.ablation_disable_postponement);
    c.process.ablation_skip_obsolete_filter =
        bool_or(*p, "ablation_skip_obsolete_filter",
                c.process.ablation_skip_obsolete_filter);
    c.process.enable_stability_tracking =
        bool_or(*p, "enable_stability_tracking",
                c.process.enable_stability_tracking);
    c.process.stability_gossip_interval = p->u64_or(
        "stability_gossip_interval_us", c.process.stability_gossip_interval);
    c.process.enable_gc = bool_or(*p, "enable_gc", c.process.enable_gc);
  }

  if (const JsonValue* net = v.find("network")) {
    c.network.min_delay = net->u64_or("min_delay_us", c.network.min_delay);
    c.network.max_delay = net->u64_or("max_delay_us", c.network.max_delay);
    c.network.fifo = bool_or(*net, "fifo", c.network.fifo);
    c.network.drop_prob = double_or(*net, "drop_prob", c.network.drop_prob);
    c.network.retry_interval =
        net->u64_or("retry_interval_us", c.network.retry_interval);
  }

  if (const JsonValue* f = v.find("failures")) {
    if (const JsonValue* crashes = f->find("crashes")) {
      for (const JsonValue& e : crashes->as_array()) {
        CrashEvent crash;
        crash.at = e.u64_or("at_us", 0);
        crash.pid = static_cast<ProcessId>(e.u64_or("pid", 0));
        c.failures.crashes.push_back(crash);
      }
    }
    if (const JsonValue* partitions = f->find("partitions")) {
      for (const JsonValue& e : partitions->as_array()) {
        PartitionEvent part;
        part.at = e.u64_or("at_us", 0);
        part.heal_at = e.u64_or("heal_at_us", 0);
        if (const JsonValue* groups = e.find("groups")) {
          for (const JsonValue& group : groups->as_array()) {
            std::vector<ProcessId> pids;
            for (const JsonValue& pid : group.as_array()) {
              pids.push_back(static_cast<ProcessId>(pid.as_u64()));
            }
            part.groups.push_back(std::move(pids));
          }
        }
        c.failures.partitions.push_back(std::move(part));
      }
    }
  }

  c.time_cap = v.u64_or("time_cap_us", c.time_cap);
  c.settle_slice = v.u64_or("settle_slice_us", c.settle_slice);
  return c;
}

ScenarioConfig parse_scenario_json(std::string_view text) {
  return scenario_from_json(JsonValue::parse(text));
}

}  // namespace optrec
