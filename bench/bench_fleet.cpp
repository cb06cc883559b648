// Fleet-scale characterization of the src/scale/ subsystem; emits
// BENCH_fleet.json (override with --out=FILE) for the CI `scale` job.
//
// Three studies, mirroring the subsystem's three parts:
//   1. piggyback sweep — run_fleet_piggyback at n=256/512/1024: the delta
//      codec's piggyback bytes/msg vs the flat FTVC, byte-exact fidelity
//      checked on every frame. Expectation: delta <= 0.35x flat at n=256
//      and the per-message delta cost grows sublinearly 256 -> 1024 while
//      the flat clock grows linearly.
//   2. crash schedules — the same model with random crash plans plus the
//      causality oracle and trace auditor: every schedule must come back
//      clean with <= 1 rollback per process per failure.
//   3. GC sweep — run_fleet_gc across the three Remark-2 aggressiveness
//      levels: reclaimed counts rise monotonically with the level.
//
// A final live row drives a real loopback TcpCluster (whose connections
// always run the codec), so the JSON ties the model to measured socket
// traffic.
//
// --smoke shrinks the workloads (CI gate on a 1-core runner); the studied
// sizes stay the same so the 0.35x assertion is made at real fleet width.
// Exits non-zero if any run loses fidelity, trips the oracle, or fails to
// quiesce — "oracle-clean" is the exit code, the JSON carries the numbers.
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_util.h"
#include "src/scale/fleet_model.h"
#include "src/tcp/tcp_cluster.h"

using namespace optrec;
using namespace optrec::bench;

namespace {

bool g_smoke = false;
std::uint64_t g_seed = 42;
int g_failures = 0;

void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_fleet: FAILED: %s\n", what);
    ++g_failures;
  }
}

// --- 1. piggyback sweep ----------------------------------------------------

struct SweepRow {
  std::string workload;
  scale::FleetPiggybackReport report;
};

std::vector<SweepRow> run_piggyback_sweep() {
  print_header("fleet piggyback sweep", "Section 6.9(1) at fleet width",
               "delta piggyback <= 0.35x flat at n=256, sublinear 256->1024");
  std::vector<SweepRow> rows;
  TablePrinter table({"workload", "n", "msgs", "flat B/msg", "delta B/msg",
                      "ratio", "full frames", "resyncs", "clean"});
  // pingpong = the connection-locality regime fleets live in (each process
  // talks to a stable peer set), where the stateful codec wins. counter =
  // scattered destinations, the codec's worst case, kept in the JSON as the
  // honest bound: its frames go full and the ratio sits at ~1.0.
  for (WorkloadKind workload : {WorkloadKind::kPingPong,
                                WorkloadKind::kCounter}) {
    WorkloadSpec spec;
    spec.kind = workload;
    for (std::size_t n : {256u, 512u, 1024u}) {
      scale::FleetPiggybackConfig config;
      config.n = n;
      config.seed = g_seed + n;
      config.workload = workload;
      config.intensity = g_smoke ? 2 : 4;
      config.depth = g_smoke ? 24 : 48;
      if (workload == WorkloadKind::kPingPong) {
        // Pairwise chains: every pair runs one, so depth IS the per-stream
        // frame count. Long enough that stream state amortises.
        config.all_seed = true;
        config.depth = g_smoke ? 32 : 96;
      }
      scale::FleetPiggybackReport r = scale::run_fleet_piggyback(config);
      require(r.quiesced, "piggyback sweep run quiesced");
      require(r.fidelity_mismatches == 0, "delta decode byte-exact");
      require(r.resyncs == 0, "failure-free sweep needs no resync");
      table.add_row({spec.name(), std::to_string(n),
                     std::to_string(r.app_frames),
                     TablePrinter::fmt(r.flat_piggyback_per_msg(), 1),
                     TablePrinter::fmt(r.delta_piggyback_per_msg(), 1),
                     TablePrinter::fmt(r.piggyback_ratio(), 3),
                     std::to_string(r.full_frames), std::to_string(r.resyncs),
                     r.clean() ? "yes" : "NO"});
      rows.push_back({spec.name(), std::move(r)});
    }
  }
  table.print(std::cout);
  std::printf("\n");

  // The ISSUE acceptance gate, asserted at bench level so CI only needs the
  // exit code: compression at fleet width, growing sublinearly. Judged on
  // the locality workload; the scatter rows are the documented worst case.
  const scale::FleetPiggybackReport& pp256 = rows[0].report;
  const scale::FleetPiggybackReport& pp1024 = rows[2].report;
  require(pp256.piggyback_ratio() <= 0.35,
          "delta piggyback <= 0.35x flat at n=256");
  require(pp1024.delta_piggyback_per_msg() <
              4.0 * pp256.delta_piggyback_per_msg(),
          "delta piggyback grows sublinearly from n=256 to n=1024");
  return rows;
}

// --- 2. crash schedules ----------------------------------------------------

std::vector<scale::FleetPiggybackReport> run_crash_schedules() {
  print_header("fleet crash schedules", "Theorem 1 at fleet width",
               "oracle/audit clean, <= 1 rollback per process per failure");
  std::vector<scale::FleetPiggybackReport> reports;
  TablePrinter table({"n", "crashes", "rollbacks", "max rb/failure",
                      "oracle viol", "audit viol", "clean"});
  const std::vector<std::size_t> sizes =
      g_smoke ? std::vector<std::size_t>{64} : std::vector<std::size_t>{64,
                                                                        128};
  for (std::size_t n : sizes) {
    scale::FleetPiggybackConfig config;
    config.n = n;
    config.seed = g_seed + 7 * n;
    config.intensity = g_smoke ? 3 : 4;
    config.depth = g_smoke ? 24 : 48;
    config.all_seed = true;
    config.crashes = 4;
    config.audit = true;
    scale::FleetPiggybackReport r = scale::run_fleet_piggyback(config);
    require(r.quiesced, "crash schedule quiesced");
    require(r.clean(), "crash schedule oracle/audit clean");
    require(r.max_rollbacks_per_failure <= 1,
            "<= 1 rollback per process per failure");
    table.add_row({std::to_string(n), std::to_string(r.crashes),
                   std::to_string(r.rollbacks),
                   std::to_string(r.max_rollbacks_per_failure),
                   std::to_string(r.oracle_violations),
                   std::to_string(r.audit_violations),
                   r.clean() ? "yes" : "NO"});
    reports.push_back(std::move(r));
  }
  table.print(std::cout);
  std::printf("\n");
  return reports;
}

// --- 3. GC sweep -----------------------------------------------------------

std::vector<scale::FleetGcReport> run_gc_sweep() {
  print_header("Remark-2 GC sweep", "Section 5 Remark 2",
               "reclaimed storage rises with the aggressiveness level");
  std::vector<scale::FleetGcReport> reports;
  TablePrinter table({"level", "ckpts reclaimed", "log entries", "tokens",
                      "bytes", "held intervals"});
  for (scale::GcLevel level :
       {scale::GcLevel::kConservative, scale::GcLevel::kStandard,
        scale::GcLevel::kAggressive}) {
    scale::FleetGcConfig config;
    config.n = 8;
    config.seed = g_seed;
    config.intensity = g_smoke ? 4 : 6;
    config.depth = g_smoke ? 32 : 64;
    config.crashes = 1;
    config.level = level;
    scale::FleetGcReport r = scale::run_fleet_gc(config);
    require(r.quiesced, "GC sweep run quiesced");
    table.add_row({scale::gc_level_name(level),
                   std::to_string(r.checkpoints_reclaimed),
                   std::to_string(r.log_entries_reclaimed),
                   std::to_string(r.tokens_compacted),
                   std::to_string(r.reclaimed_bytes),
                   std::to_string(r.held_intervals)});
    reports.push_back(std::move(r));
  }
  table.print(std::cout);
  std::printf("\n");
  require(reports[2].reclaimed_bytes >= reports[1].reclaimed_bytes &&
              reports[1].reclaimed_bytes > 0,
          "aggressive reclaims at least as much as standard");
  return reports;
}

// --- 4. live TCP row -------------------------------------------------------

struct LiveRow {
  std::size_t n = 0;
  std::size_t nodes = 0;
  TcpClusterResult result;
};

LiveRow run_live() {
  const std::size_t n = g_smoke ? 16 : 64;
  const std::size_t nodes = g_smoke ? 4 : 16;
  std::printf("live TCP fleet: %zu processes on %zu loopback nodes, one "
              "crash...\n",
              n, nodes);
  TcpClusterConfig config;
  config.n = n;
  config.nodes = nodes;
  config.seed = g_seed;
  config.workload.intensity = 4;
  config.workload.depth = g_smoke ? 48 : 96;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(10);
  config.process.checkpoint_interval = millis(50);
  config.process.retransmit_on_failure = true;
  config.crashes.push_back({millis(40), 3});
  config.enable_oracle = true;
  config.time_cap = seconds(120);

  TcpCluster cluster(config);
  LiveRow row;
  row.n = n;
  row.nodes = nodes;
  row.result = cluster.run();
  require(row.result.exit_code == 0 && row.result.quiesced,
          "live TCP fleet quiesced");
  require(cluster.oracle()->check_consistency().empty(),
          "live TCP fleet oracle clean");
  require(row.result.tcp.protocol_errors == 0, "live fleet protocol-clean");
  require(row.result.tcp.delta_frames_tx > 0, "live fleet used the codec");
  for (const TcpNodeResult& node : row.result.per_node) {
    require(node.tcp.tokens_tx == (nodes - 1) * node.net.token_broadcasts,
            "live fleet sent one kToken per remote node per broadcast");
  }
  std::printf("  delivered=%llu delta_frames=%llu tokens=%llu resyncs=%llu "
              "rollback_max=%llu\n\n",
              static_cast<unsigned long long>(
                  row.result.net.messages_delivered),
              static_cast<unsigned long long>(row.result.tcp.delta_frames_tx),
              static_cast<unsigned long long>(row.result.tcp.tokens_tx),
              static_cast<unsigned long long>(row.result.tcp.delta_resyncs),
              static_cast<unsigned long long>(
                  row.result.metrics.max_rollbacks_per_process_per_failure()));
  return row;
}

// --- JSON ------------------------------------------------------------------

void write_piggyback_fields(JsonWriter& w,
                            const scale::FleetPiggybackReport& r) {
  w.kv("n", std::uint64_t{r.n});
  w.kv("quiesced", r.quiesced);
  w.kv("app_frames", r.app_frames);
  w.kv("full_frames", r.full_frames);
  w.kv("resyncs", r.resyncs);
  w.kv("fidelity_mismatches", r.fidelity_mismatches);
  w.kv("flat_piggyback_bytes", r.flat_piggyback_bytes);
  w.kv("delta_piggyback_bytes", r.delta_piggyback_bytes);
  w.kv("flat_piggyback_bytes_per_msg", r.flat_piggyback_per_msg());
  w.kv("delta_piggyback_bytes_per_msg", r.delta_piggyback_per_msg());
  w.kv("delta_to_flat_ratio", r.piggyback_ratio());
  w.kv("crashes", r.crashes);
  w.kv("rollbacks", r.rollbacks);
  w.kv("max_rollbacks_per_process_per_failure", r.max_rollbacks_per_failure);
  w.kv("oracle_violations", std::uint64_t{r.oracle_violations});
  w.kv("audit_violations", std::uint64_t{r.audit_violations});
  w.kv("clean", r.clean());
}

int write_json(const std::string& out_file,
               const std::vector<SweepRow>& sweep,
               const std::vector<scale::FleetPiggybackReport>& crash_runs,
               const std::vector<scale::FleetGcReport>& gc,
               const LiveRow& live) {
  std::ofstream os(out_file, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "bench_fleet: cannot open '%s'\n", out_file.c_str());
    return 2;
  }
  JsonWriter w(os);
  w.begin_object();
  write_bench_preamble(w, "fleet");
  w.key("config").begin_object();
  w.kv("seed", g_seed);
  w.kv("smoke", g_smoke);
  w.end_object();
  w.key("results").begin_object();

  w.key("piggyback_sweep").begin_array();
  for (const SweepRow& r : sweep) {
    w.begin_object();
    w.kv("workload", r.workload);
    write_piggyback_fields(w, r.report);
    w.end_object();
  }
  w.end_array();

  w.key("crash_schedules").begin_array();
  for (const auto& r : crash_runs) {
    w.begin_object();
    write_piggyback_fields(w, r);
    w.end_object();
  }
  w.end_array();

  w.key("gc_sweep").begin_array();
  for (const auto& r : gc) {
    w.begin_object();
    w.kv("level", scale::gc_level_name(r.level));
    w.kv("quiesced", r.quiesced);
    w.kv("checkpoints_reclaimed", r.checkpoints_reclaimed);
    w.kv("log_entries_reclaimed", r.log_entries_reclaimed);
    w.kv("tokens_compacted", r.tokens_compacted);
    w.kv("reclaimed_bytes", r.reclaimed_bytes);
    w.kv("held_intervals", r.held_intervals);
    w.end_object();
  }
  w.end_array();

  w.key("live_tcp").begin_object();
  w.kv("n", std::uint64_t{live.n});
  w.kv("nodes", std::uint64_t{live.nodes});
  w.kv("quiesced", live.result.quiesced);
  w.kv("messages_delivered", live.result.net.messages_delivered);
  w.kv("delta_frames_tx", live.result.tcp.delta_frames_tx);
  w.kv("delta_bytes_tx", live.result.tcp.delta_bytes_tx);
  w.kv("delta_flat_bytes", live.result.tcp.delta_flat_bytes);
  w.kv("delta_resyncs", live.result.tcp.delta_resyncs);
  w.kv("tokens_tx", live.result.tcp.tokens_tx);
  w.kv("protocol_errors", live.result.tcp.protocol_errors);
  w.kv("rollbacks", live.result.metrics.rollbacks);
  w.kv("max_rollbacks_per_process_per_failure",
       live.result.metrics.max_rollbacks_per_process_per_failure());
  w.end_object();

  w.end_object();
  w.end_object();
  os << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_file = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_file = arg + 6;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      g_smoke = true;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      g_seed = std::strtoull(arg + 7, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "bench_fleet: unknown flag '%s' (--out= --seed= --smoke)\n",
                   arg);
      return 2;
    }
  }

  const auto sweep = run_piggyback_sweep();
  const auto crash_runs = run_crash_schedules();
  const auto gc = run_gc_sweep();
  const LiveRow live = run_live();

  if (const int rc = write_json(out_file, sweep, crash_runs, gc, live);
      rc != 0) {
    return rc;
  }
  std::printf("wrote %s\n", out_file.c_str());
  if (g_failures != 0) {
    std::fprintf(stderr, "bench_fleet: %d assertion(s) failed\n", g_failures);
    return 1;
  }
  return 0;
}
