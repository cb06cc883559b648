#include "src/harness/run_flags.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "src/telemetry/recovery_timeline.h"
#include "src/trace/trace_auditor.h"
#include "src/trace/trace_sink.h"
#include "src/util/log.h"
#include "src/util/rng.h"

namespace optrec {

bool parse_flag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = "";
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

bool parse_switch(const char* arg, const char* name) {
  std::string value;
  if (!parse_flag(arg, name, &value)) return false;
  if (std::strchr(arg, '=') != nullptr) {
    throw UsageError(std::string(name) + " takes no value (got '" + arg +
                     "')");
  }
  return true;
}

std::uint64_t parse_u64(const std::string& value, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t parsed = std::strtoull(value.c_str(), &end, 10);
  // strtoull would take "-1" and " 7"; a count is plain digits.
  if (value.empty() || value[0] < '0' || value[0] > '9' || *end != '\0' ||
      errno == ERANGE) {
    throw UsageError(std::string("bad value for ") + flag + ": '" + value +
                     "'");
  }
  return parsed;
}

double parse_probability(const std::string& value, const char* flag) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || !(p >= 0.0 && p <= 1.0)) {
    throw UsageError(std::string(flag) +
                     " wants a probability in [0, 1], got '" + value + "'");
  }
  return p;
}

std::uint16_t parse_port(const std::string& value, const char* flag) {
  const std::uint64_t port = parse_u64(value, flag);
  if (port > std::numeric_limits<std::uint16_t>::max()) {
    throw UsageError(std::string(flag) + " wants a port in [0, 65535], got '" +
                     value + "'");
  }
  return static_cast<std::uint16_t>(port);
}

void die(const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", program_invocation_short_name,
               message.c_str());
  std::exit(2);
}

std::vector<CrashEvent> RunFlags::crash_plan(bool concurrent) const {
  if (crashes == 0) return {};
  Rng rng(seed * 977 + 3);
  return FailurePlan::random(rng, n, crashes, millis(20), millis(200),
                             concurrent)
      .crashes;
}

namespace {

std::uint32_t parse_u32(const std::string& value, const char* flag) {
  const std::uint64_t v = parse_u64(value, flag);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw UsageError(std::string("bad value for ") + flag + ": '" + value +
                     "'");
  }
  return static_cast<std::uint32_t>(v);
}

/// One shared flag, applied to `f`; false when `arg` is not one.
bool apply_shared_flag(const char* arg, RunFlags& f) {
  std::string v;
  if (parse_flag(arg, "--protocol", &v)) {
    f.protocol = protocol_from_name(v);
  } else if (parse_flag(arg, "--workload", &v)) {
    f.workload.kind = workload_from_name(v);
  } else if (parse_flag(arg, "--n", &v)) {
    f.n = parse_u64(v, "--n");
  } else if (parse_flag(arg, "--processes", &v)) {
    f.n = parse_u64(v, "--processes");
  } else if (parse_flag(arg, "--seed", &v)) {
    f.seed = parse_u64(v, "--seed");
  } else if (parse_flag(arg, "--intensity", &v)) {
    f.workload.intensity = parse_u32(v, "--intensity");
  } else if (parse_flag(arg, "--depth", &v)) {
    f.workload.depth = parse_u32(v, "--depth");
  } else if (parse_flag(arg, "--crashes", &v)) {
    f.crashes = parse_u64(v, "--crashes");
  } else if (parse_flag(arg, "--drop", &v)) {
    f.drop_prob = parse_probability(v, "--drop");
  } else if (parse_flag(arg, "--dup", &v)) {
    f.duplicate_prob = parse_probability(v, "--dup");
  } else if (parse_flag(arg, "--partition", &v)) {
    f.partitions.push_back(parse_partition_spec(v));
  } else if (parse_flag(arg, "--min-delay-us", &v)) {
    f.min_delay = micros(parse_u64(v, "--min-delay-us"));
  } else if (parse_flag(arg, "--max-delay-us", &v)) {
    f.max_delay = micros(parse_u64(v, "--max-delay-us"));
  } else if (parse_flag(arg, "--flush-ms", &v)) {
    f.process.flush_interval = millis(parse_u64(v, "--flush-ms"));
  } else if (parse_flag(arg, "--ckpt-ms", &v)) {
    f.process.checkpoint_interval = millis(parse_u64(v, "--ckpt-ms"));
  } else if (parse_switch(arg, "--retransmit")) {
    f.process.retransmit_on_failure = true;
  } else if (parse_switch(arg, "--stability")) {
    f.process.enable_stability_tracking = true;
  } else if (parse_switch(arg, "--gc")) {
    f.process.enable_stability_tracking = true;
    f.process.enable_gc = true;
  } else if (parse_flag(arg, "--time-cap-ms", &v)) {
    f.time_cap = millis(parse_u64(v, "--time-cap-ms"));
  } else if (parse_switch(arg, "--verbose")) {
    f.verbose = true;
  } else if (parse_switch(arg, "--oracle")) {
    f.oracle = true;
  } else if (parse_flag(arg, "--trace-format", &v)) {
    if (v != "jsonl" && v != "chrome" && v != "dot") {
      throw UsageError("--trace-format wants jsonl | chrome | dot");
    }
    f.trace_format = v;
  } else if (parse_flag(arg, "--trace", &v)) {
    if (v.empty()) {
      throw UsageError("--trace wants a file name (or - for stdout)");
    }
    f.trace_file = v;
  } else if (parse_switch(arg, "--audit")) {
    f.audit = true;
  } else if (parse_flag(arg, "--metrics-json", &v)) {
    f.metrics_json = true;
    f.metrics_json_file = v;
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::optional<std::string> parse_run_flags(int argc, char** argv,
                                           RunFlags& flags,
                                           const BackendFlagHandler& backend) {
  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (apply_shared_flag(arg, flags)) continue;
      if (!backend || !backend(arg)) {
        throw UsageError(std::string("unknown flag '") + arg +
                         "' (see \"Run flags\" in README.md)");
      }
    }
    if (flags.n < 2) throw UsageError("--n must be >= 2");
    if (flags.min_delay > flags.max_delay) {
      throw UsageError("--min-delay-us must be <= --max-delay-us");
    }
  } catch (const UsageError& e) {
    return std::string(e.what());
  } catch (const std::invalid_argument& e) {  // name tables, partition spec
    return std::string(e.what());
  }
  if (flags.verbose) set_log_level(LogLevel::kInfo);
  return std::nullopt;
}

void announce_run(const char* backend, const RunFlags& flags) {
  std::printf("%s: protocol=%s workload=%s n=%zu seed=%llu crashes=%zu\n\n",
              backend, protocol_name(flags.protocol),
              flags.workload.name().c_str(), flags.n,
              (unsigned long long)flags.seed, flags.crashes);
}

namespace {

void write_running_stats(JsonWriter& w, const RunningStats& s) {
  w.begin_object();
  w.kv("count", std::uint64_t{s.count()});
  w.kv("mean", s.mean());
  w.kv("min", s.min());
  w.kv("max", s.max());
  w.kv("stddev", s.stddev());
  w.kv("sum", s.sum());
  w.end_object();
}

void write_metrics(JsonWriter& w, const Metrics& m) {
  w.begin_object();
  write_counters(w, m);
  w.kv("piggyback_per_message", m.piggyback_per_message());
  w.kv("max_rollbacks_per_process_per_failure",
       m.max_rollbacks_per_process_per_failure());
  w.key("restart_latency_us");
  write_running_stats(w, m.restart_latency);
  w.key("rollback_depth");
  write_running_stats(w, m.rollback_depth);
  w.key("output_commit_latency_us");
  write_running_stats(w, m.output_commit_latency);
  w.key("rollbacks_by_failure").begin_array();
  for (const auto& [failure, by_pid] : m.rollbacks_by_failure) {
    w.begin_object();
    w.kv("failed_pid", std::uint64_t{failure.first});
    w.kv("failed_version", std::uint64_t{failure.second});
    w.key("rollbacks_by_pid").begin_object();
    for (const auto& [pid, count] : by_pid) {
      w.kv(std::to_string(pid), count);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_network(JsonWriter& w, const Network::Stats& n) {
  w.begin_object();
  write_counters(w, n);
  w.end_object();
}

bool simulated(const RunReport& o) { return o.backend == "sim"; }

double delivered_per_second(const RunReport& o) {
  const double seconds = static_cast<double>(o.run_time) / 1e6;
  return seconds > 0
             ? static_cast<double>(o.metrics.messages_delivered) / seconds
             : 0.0;
}

void write_trace_file(const std::string& file, const std::string& format,
                      const std::vector<TraceEvent>& events) {
  std::ofstream file_out;
  if (file != "-") {
    file_out.open(file, std::ios::binary);
    if (!file_out) die("cannot open trace file '" + file + "'");
  }
  std::ostream& out = file == "-" ? std::cout : file_out;
  if (format == "jsonl") {
    write_trace_jsonl(out, events);
  } else if (format == "chrome") {
    write_trace_chrome(out, events);
  } else {
    write_trace_dot(out, events);
  }
  if (&out == &file_out && !file_out) {
    die("failed writing trace file '" + file + "'");
  }
}

void print_summary(const RunReport& o) {
  const Metrics& m = o.metrics;
  const double seconds = static_cast<double>(o.run_time) / 1e6;
  std::printf("quiesced   %s (t = %.2f ms %s)\n", o.quiesced ? "yes" : "NO",
              o.run_time / 1000.0, simulated(o) ? "simulated" : "wall");
  if (o.latency != nullptr) {
    std::printf("throughput %.0f delivered/s (%llu delivered in %.2f s)\n",
                delivered_per_second(o),
                (unsigned long long)m.messages_delivered, seconds);
    std::printf("latency    p50=%.0f us p90=%.0f us p99=%.0f us (n=%llu)\n",
                o.latency->percentile(0.50), o.latency->percentile(0.90),
                o.latency->percentile(0.99),
                (unsigned long long)o.latency->count());
  }
  std::printf("messages   sent=%llu delivered=%llu replayed=%llu\n",
              (unsigned long long)m.app_messages_sent,
              (unsigned long long)m.messages_delivered,
              (unsigned long long)m.messages_replayed);
  std::printf("filters    obsolete=%llu duplicate=%llu postponed=%llu\n",
              (unsigned long long)m.messages_discarded_obsolete,
              (unsigned long long)m.messages_discarded_duplicate,
              (unsigned long long)m.messages_postponed);
  std::printf("recovery   crashes=%llu restarts=%llu rollbacks=%llu "
              "(max %llu/proc/failure) lost=%llu restart=%.2f ms mean\n",
              (unsigned long long)m.crashes, (unsigned long long)m.restarts,
              (unsigned long long)m.rollbacks,
              (unsigned long long)m.max_rollbacks_per_process_per_failure(),
              (unsigned long long)m.messages_lost_in_crash,
              m.restart_latency.mean() / 1000.0);
  std::printf("blocking   recovery=%.2f ms checkpoint=%.2f ms\n",
              m.recovery_blocked_time / 1000.0,
              m.checkpoint_blocked_time / 1000.0);
  std::printf("storage    checkpoints=%llu flushes=%llu sync-writes=%llu "
              "gc(ckpt=%llu log=%llu)\n",
              (unsigned long long)m.checkpoints_taken,
              (unsigned long long)m.log_flushes,
              (unsigned long long)m.sync_log_writes,
              (unsigned long long)m.gc_checkpoints_reclaimed,
              (unsigned long long)m.gc_log_entries_reclaimed);
  std::printf("wire       piggyback=%.1f B/msg control=%llu tokens=%llu "
              "retransmissions=%llu msg-bytes=%llu token-bytes=%llu "
              "retried=%llu\n",
              m.piggyback_per_message(),
              (unsigned long long)m.control_messages_sent,
              (unsigned long long)o.net.tokens_sent,
              (unsigned long long)m.retransmissions,
              (unsigned long long)o.net.message_bytes,
              (unsigned long long)o.net.token_bytes,
              (unsigned long long)o.net.messages_retried);
  if (m.outputs_requested > 0) {
    std::printf("outputs    requested=%llu committed=%llu latency=%.2f ms\n",
                (unsigned long long)m.outputs_requested,
                (unsigned long long)m.outputs_committed,
                m.output_commit_latency.mean() / 1000.0);
  }
  if (o.print_extra) o.print_extra();
  if (o.oracle_enabled) {
    std::printf("oracle     states=%zu consistency=%s\n", o.oracle_states,
                o.violations.empty() ? "OK" : "VIOLATED");
    for (const std::string& v : o.violations) {
      std::printf("  !! %s\n", v.c_str());
    }
  }
}

}  // namespace

std::string run_json(const RunReport& o) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("config").begin_object();
  w.kv("backend", o.backend);
  if (o.json_config) o.json_config(w);
  w.kv("protocol", protocol_name(o.protocol));
  w.kv("workload", o.workload.name());
  w.kv("n", std::uint64_t{o.n});
  w.kv("seed", o.seed);
  w.kv("crashes_planned", std::uint64_t{o.crashes_planned});
  w.end_object();

  w.kv("exit_code", std::uint64_t(o.exit_code));
  w.kv("quiesced", o.quiesced);
  if (simulated(o)) {
    w.kv("end_time_us", o.run_time);
    w.kv("delivered_per_sim_second", delivered_per_second(o));
  } else {
    w.kv("wall_time_us", o.run_time);
    w.kv("delivered_per_second", delivered_per_second(o));
  }
  if (o.latency != nullptr) {
    w.key("delivery_latency_us").begin_object();
    w.kv("count", std::uint64_t{o.latency->count()});
    w.kv("p50", o.latency->percentile(0.50));
    w.kv("p90", o.latency->percentile(0.90));
    w.kv("p99", o.latency->percentile(0.99));
    w.end_object();
  }

  w.key("metrics");
  write_metrics(w, o.metrics);
  w.key("network");
  write_network(w, o.net);
  w.key("oracle").begin_object();
  w.kv("states", std::uint64_t{o.oracle_states});
  w.key("violations").begin_array();
  for (const std::string& v : o.violations) w.value(v);
  w.end_array();
  w.end_object();
  if (o.audit_violations) {
    w.kv("audit_violations", std::uint64_t{*o.audit_violations});
  }
  w.kv("trace_events", std::uint64_t{o.trace != nullptr ? o.trace->size() : 0});
  // Phase-decomposed unavailability per failure — only derivable when the
  // run recorded a trace (docs/OBSERVABILITY.md).
  if (o.trace != nullptr && !o.trace->empty()) {
    w.key("recovery_timeline").begin_object();
    telemetry::write_recovery_timeline_fields(
        w, telemetry::analyze_recovery_timeline(*o.trace));
    w.end_object();
  }
  if (o.json_blocks) o.json_blocks(w);
  w.end_object();
  os << '\n';
  return os.str();
}

int finish_run(const RunFlags& flags, RunReport o) {
  if (!flags.trace_file.empty() && o.trace != nullptr) {
    write_trace_file(flags.trace_file, flags.trace_format, *o.trace);
  }
  bool audit_ok = true;
  if (flags.audit && o.trace != nullptr) {
    const AuditReport report = audit_trace(*o.trace);
    audit_ok = report.ok();
    o.audit_violations = report.violations.size();
    if (!flags.metrics_json) std::printf("%s\n", report.summary().c_str());
    for (const std::string& v : report.violations) {
      std::fprintf(stderr, "audit !! %s\n", v.c_str());
    }
  }
  // Distinct exit codes: correctness violations (3) vs. a run that never
  // quiesced (4); usage errors exit 2 via die(). See README.md.
  if (!o.violations.empty() || !audit_ok) o.exit_code = 3;

  if (!flags.metrics_json) {
    print_summary(o);
    return o.exit_code;
  }
  const std::string json = run_json(o);
  if (flags.metrics_json_file.empty()) {
    std::fputs(json.c_str(), stdout);
    return o.exit_code;
  }
  std::ofstream out(flags.metrics_json_file, std::ios::binary);
  if (!out) die("cannot open metrics file '" + flags.metrics_json_file + "'");
  out << json;
  if (!out) {
    die("failed writing metrics file '" + flags.metrics_json_file + "'");
  }
  return o.exit_code;
}

}  // namespace optrec
