// E13 — the paper's Section 7 future-work study: shrinking the FTVC
// piggyback by sending only the clock entries that changed since the
// previous message on the same (sender, receiver) stream.
//
// Real Damani-Garg runs, failure-free and with crashes, are replayed
// through scale::run_fleet_piggyback: every application send is encoded by
// the sender's per-destination FIFO delta stream, decoded by the receiver,
// and checked byte-exact against the flat frame. The delta column counts
// everything a stateful frame adds (stream seq, base seq, base checksum,
// changed entries); a stream's first frame carries the full clock, every
// later one a delta or, when that would not be smaller, the flat frame.
//
// Three sets of rows:
//   grid   pingpong and counter at n = 4..32, failure-free and with 2
//          crashes: where the delta starts to pay;
//   fleet  both workloads at n = 256/512/1024, failure-free: the claim at
//          fleet width, where pingpong's pairwise chains are the
//          connection-locality regime fleets live in and counter's
//          scattered destinations are the codec's worst case;
//   crash  counter at n = 64/128 with 4 crashes: Theorem 1 at fleet width.
// Every row with crashes runs the causality oracle and the trace auditor.
//
// Exits 1 unless every row quiesces with 0 fidelity mismatches and 0
// resyncs, pingpong's delta is <= 0.35x flat at n = 256 and its per-message
// delta grows less than 4x from n = 256 to 1024, and every row with crashes
// is oracle- and audit-clean with <= 1 rollback per process per failure.
//
//   bench_diff_piggyback [--out=BENCH_diff_piggyback.json]
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_util.h"
#include "src/scale/fleet_model.h"

using namespace optrec;
using namespace optrec::bench;

namespace {

struct Row {
  const char* set = "";
  scale::FleetPiggybackConfig config;
  scale::FleetPiggybackReport report;
};

void add_row(std::vector<Row>& rows, const char* set,
             scale::FleetPiggybackConfig config) {
  config.audit = config.crashes > 0;
  Row row;
  row.set = set;
  row.config = config;
  row.report = scale::run_fleet_piggyback(config);
  rows.push_back(std::move(row));
}

std::vector<Row> run_rows() {
  std::vector<Row> rows;
  for (WorkloadKind kind : {WorkloadKind::kPingPong, WorkloadKind::kCounter}) {
    for (std::size_t n : {4u, 8u, 16u, 32u}) {
      for (std::size_t crashes : {0u, 2u}) {
        scale::FleetPiggybackConfig c;
        c.n = n;
        c.seed = 9000 + n;
        c.workload = kind;
        c.intensity = 6;
        c.depth = kind == WorkloadKind::kPingPong ? 200 : 48;
        c.all_seed = true;
        c.crashes = crashes;
        add_row(rows, "grid", c);
      }
    }
  }
  for (WorkloadKind kind : {WorkloadKind::kPingPong, WorkloadKind::kCounter}) {
    for (std::size_t n : {256u, 512u, 1024u}) {
      scale::FleetPiggybackConfig c;
      c.n = n;
      c.seed = 42 + n;
      c.workload = kind;
      c.intensity = 4;
      c.depth = 48;
      if (kind == WorkloadKind::kPingPong) {
        // Every pair runs one chain, so depth is the per-stream frame
        // count: long enough that stream state amortises.
        c.all_seed = true;
        c.depth = 96;
      }
      add_row(rows, "fleet", c);
    }
  }
  for (std::size_t n : {64u, 128u}) {
    scale::FleetPiggybackConfig c;
    c.n = n;
    c.seed = 42 + 7 * n;
    c.intensity = 4;
    c.depth = 48;
    c.all_seed = true;
    c.crashes = 4;
    add_row(rows, "crash", c);
  }
  return rows;
}

std::string workload_name(const Row& r) {
  WorkloadSpec spec;
  spec.kind = r.config.workload;
  return spec.name();
}

void print_table(const std::vector<Row>& rows) {
  print_header("E13: delta piggyback over FIFO streams (future-work study)",
               "Section 7 ('send only one timestamp with each message')",
               "per-destination deltas shrink the O(n) piggyback toward the "
               "single-entry ideal on FIFO channels");
  TablePrinter table({"set", "workload", "n", "crashes", "messages",
                      "full B/msg", "delta B/msg", "saving", "full frames",
                      "mismatches", "max rb/failure", "clean"});
  for (const Row& r : rows) {
    const scale::FleetPiggybackReport& p = r.report;
    table.add_row({r.set, workload_name(r), std::to_string(p.n),
                   std::to_string(r.config.crashes),
                   std::to_string(p.app_frames),
                   TablePrinter::fmt(p.flat_piggyback_per_msg(), 1),
                   TablePrinter::fmt(p.delta_piggyback_per_msg(), 1),
                   TablePrinter::fmt(100.0 * (1.0 - p.piggyback_ratio()), 0) +
                       " %",
                   std::to_string(p.full_frames),
                   std::to_string(p.fidelity_mismatches),
                   std::to_string(p.max_rollbacks_per_failure),
                   p.clean() ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::printf(
      "\nPairwise traffic (pingpong) approaches the §7 single-entry ideal: "
      "the delta stays flat as n grows. Scattered traffic (counter) changes "
      "most entries between consecutive same-pair messages, so those frames "
      "go flat and the stream costs what the flat vector costs.\n\n");
}

const scale::FleetPiggybackReport& fleet_pingpong(const std::vector<Row>& rows,
                                                  std::size_t n) {
  for (const Row& r : rows) {
    if (std::strcmp(r.set, "fleet") == 0 &&
        r.config.workload == WorkloadKind::kPingPong && r.config.n == n) {
      return r.report;
    }
  }
  std::abort();
}

/// Print every gate with its verdict; returns the number that failed.
int check_gates(const std::vector<Row>& rows) {
  int failures = 0;
  const auto gate = [&failures](bool ok, const std::string& what) {
    std::printf("gate %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  // clean() is quiesced, byte-exact and, where the row has crashes (the
  // only rows that run them), oracle- and audit-clean.
  std::string failing;
  for (const Row& r : rows) {
    const scale::FleetPiggybackReport& p = r.report;
    if (p.clean() && p.resyncs == 0 && p.max_rollbacks_per_failure <= 1) {
      continue;
    }
    failing += std::string(" [") + r.set + " " + workload_name(r) +
               " n=" + std::to_string(p.n) + " crashes=" +
               std::to_string(r.config.crashes) + ": " + p.first_violation +
               "]";
  }
  gate(failing.empty(),
       "every row quiesced with 0 fidelity mismatches and 0 resyncs; every "
       "row with crashes oracle/audit clean with <= 1 rollback per process "
       "per failure" + failing);
  const scale::FleetPiggybackReport& pp256 = fleet_pingpong(rows, 256);
  const scale::FleetPiggybackReport& pp1024 = fleet_pingpong(rows, 1024);
  gate(pp256.piggyback_ratio() <= 0.35,
       "pingpong n=256 delta/flat " +
           TablePrinter::fmt(pp256.piggyback_ratio(), 3) + " <= 0.35");
  const double growth = pp1024.delta_piggyback_per_msg() /
                        pp256.delta_piggyback_per_msg();
  gate(growth < 4.0, "pingpong delta B/msg n=256 -> 1024 grows " +
                         TablePrinter::fmt(growth, 2) + "x < 4x");
  return failures;
}

void write_json(std::ostream& os, const std::vector<Row>& rows) {
  JsonWriter w(os);
  w.begin_object();
  write_bench_preamble(w, "diff_piggyback");
  w.key("config").begin_object();
  w.kv("protocol", "dg");
  w.end_object();
  w.key("results").begin_array();
  for (const Row& r : rows) {
    const scale::FleetPiggybackReport& p = r.report;
    w.begin_object();
    w.kv("set", r.set);
    w.kv("workload", workload_name(r));
    w.kv("n", std::uint64_t{p.n});
    w.kv("seed", r.config.seed);
    w.kv("intensity", std::uint64_t{r.config.intensity});
    w.kv("depth", std::uint64_t{r.config.depth});
    w.kv("crashes", std::uint64_t{r.config.crashes});
    w.kv("quiesced", p.quiesced);
    w.kv("messages", p.app_frames);
    w.kv("full_frames", p.full_frames);
    w.kv("flat_piggyback_bytes", p.flat_piggyback_bytes);
    w.kv("delta_piggyback_bytes", p.delta_piggyback_bytes);
    w.kv("delta_to_flat_ratio", p.piggyback_ratio());
    w.kv("flat_frame_bytes", p.flat_frame_bytes);
    w.kv("delta_frame_bytes", p.delta_frame_bytes);
    w.kv("resyncs", p.resyncs);
    w.kv("fidelity_mismatches", p.fidelity_mismatches);
    w.kv("rollbacks", p.rollbacks);
    w.kv("max_rollbacks_per_process_per_failure", p.max_rollbacks_per_failure);
    w.kv("oracle_violations", std::uint64_t{p.oracle_violations});
    w.kv("audit_violations", std::uint64_t{p.audit_violations});
    w.kv("clean", p.clean());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_file;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_file = argv[i] + 6;
    } else {
      std::fprintf(stderr, "bench_diff_piggyback: unknown flag '%s'\n",
                   argv[i]);
      return 2;
    }
  }

  const std::vector<Row> rows = run_rows();
  print_table(rows);
  if (!out_file.empty()) {
    std::ofstream os(out_file, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "bench_diff_piggyback: cannot open '%s'\n",
                   out_file.c_str());
      return 2;
    }
    write_json(os, rows);
  }
  return check_gates(rows) == 0 ? 0 : 1;
}
