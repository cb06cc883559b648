// Rows of the two runtime benches, bench_live_throughput and
// bench_tcp_throughput: one fleet run per row, reported the same way — the
// protocol table, the channel fan-in table, the BENCH_*.json "results"
// array, and the gate that fails the bench when a run did not quiesce.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace optrec::bench {

/// The protocols both runtime benches compare.
inline constexpr ProtocolKind kRuntimeProtocols[] = {
    ProtocolKind::kDamaniGarg,
    ProtocolKind::kPessimistic,
    ProtocolKind::kCoordinated,
    ProtocolKind::kCascading,
};

struct RuntimeRow {
  const char* protocol = "";
  const char* phase = "";
  std::size_t producers = 0;  // per-channel fan-in: n - 1
  bool quiesced = false;
  std::uint64_t delivered = 0;
  SimTime wall_us = 0;
  double msgs_per_sec = 0;
  LatencySummary latency;
  double piggyback_per_msg = 0;
  double recovery_mean_us = 0;
  double recovery_max_us = 0;
  std::uint64_t rollbacks = 0;
  /// Socket counters, reported for TCP runs only.
  bool tcp = false;
  std::uint64_t frames_tx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t token_retries = 0;
};

inline RuntimeRow runtime_row(ProtocolKind protocol, const char* phase,
                              std::size_t n, bool quiesced, SimTime wall_us,
                              const Metrics& m,
                              const telemetry::FixedHistogram& latency) {
  RuntimeRow row;
  row.protocol = protocol_name(protocol);
  row.phase = phase;
  row.producers = n - 1;
  row.quiesced = quiesced;
  row.delivered = m.messages_delivered;
  row.wall_us = wall_us;
  const double wall_s = static_cast<double>(wall_us) / 1e6;
  row.msgs_per_sec =
      wall_s > 0 ? static_cast<double>(row.delivered) / wall_s : 0.0;
  row.latency = LatencySummary::of(latency);
  row.piggyback_per_msg = m.piggyback_per_message();
  row.recovery_mean_us = m.restart_latency.mean();
  row.recovery_max_us = m.restart_latency.max();
  row.rollbacks = m.rollbacks;
  return row;
}

/// The per-protocol table, then the fan-in sweep table when there is one.
inline void print_runtime_tables(const std::vector<RuntimeRow>& rows,
                                 const std::vector<RuntimeRow>& fanin) {
  const auto fmt = TablePrinter::fmt;
  const bool tcp = !rows.empty() && rows.front().tcp;
  std::vector<std::string> head = {"protocol",    "phase",  "msgs/s",
                                   "p50 us",      "p90 us", "p99 us",
                                   "piggyback B/msg", "recovery ms",
                                   "rollbacks"};
  if (tcp) head.push_back("tok-retry");
  head.push_back("quiesced");
  TablePrinter table(head);
  for (const RuntimeRow& r : rows) {
    std::vector<std::string> cells = {
        r.protocol, r.phase, fmt(r.msgs_per_sec, 0), fmt(r.latency.p50, 0),
        fmt(r.latency.p90, 0), fmt(r.latency.p99, 0),
        fmt(r.piggyback_per_msg, 1), fmt(r.recovery_mean_us / 1000.0, 2),
        std::to_string(r.rollbacks)};
    if (tcp) cells.push_back(std::to_string(r.token_retries));
    cells.push_back(r.quiesced ? "yes" : "NO");
    table.add_row(cells);
  }
  table.print(std::cout);
  if (fanin.empty()) return;

  std::printf("\nchannel fan-in sweep (dg, failure-free):\n");
  TablePrinter fanin_table({"producers/chan", "msgs/s", "p50 us", "p90 us",
                            "p99 us", "quiesced"});
  for (const RuntimeRow& r : fanin) {
    fanin_table.add_row({std::to_string(r.producers), fmt(r.msgs_per_sec, 0),
                         fmt(r.latency.p50, 0), fmt(r.latency.p90, 0),
                         fmt(r.latency.p99, 0), r.quiesced ? "yes" : "NO"});
  }
  fanin_table.print(std::cout);
}

/// The "results" array of BENCH_live.json / BENCH_tcp.json.
inline void write_runtime_rows(JsonWriter& w,
                               const std::vector<RuntimeRow>& rows) {
  w.key("results").begin_array();
  for (const RuntimeRow& r : rows) {
    w.begin_object();
    w.kv("protocol", r.protocol);
    w.kv("phase", r.phase);
    w.kv("producers_per_channel", std::uint64_t{r.producers});
    w.kv("quiesced", r.quiesced);
    w.kv("messages_delivered", r.delivered);
    w.kv("wall_time_us", r.wall_us);
    w.kv("msgs_per_sec", r.msgs_per_sec);
    write_latency_fields(w, "delivery_latency", r.latency);
    w.kv("piggyback_bytes_per_msg", r.piggyback_per_msg);
    w.kv("recovery_mean_us", r.recovery_mean_us);
    w.kv("recovery_max_us", r.recovery_max_us);
    w.kv("rollbacks", r.rollbacks);
    if (r.tcp) {
      w.kv("tcp_frames_tx", r.frames_tx);
      w.kv("tcp_bytes_tx", r.bytes_tx);
      w.kv("tcp_token_retries", r.token_retries);
    }
    w.end_object();
  }
  w.end_array();
}

/// Exit status of a runtime bench: 1 when any run failed to quiesce.
inline int quiescence_gate(const std::vector<RuntimeRow>& rows) {
  for (const RuntimeRow& r : rows) {
    if (!r.quiesced) {
      std::fprintf(stderr, "FAIL: %s/%s did not quiesce\n", r.protocol,
                   r.phase);
      return 1;
    }
  }
  return 0;
}

}  // namespace optrec::bench
