// optrec_trace_merge — join per-node trace files into one timeline.
//
// A --spawn cluster run leaves one JSONL trace per node (--trace-dir).
// This tool merges them causally (src/telemetry/trace_merge.h): events are
// rebased onto the shared wall clock, cross-node sends are matched to
// their deliveries by FTVC piggyback identity, and the result is
// linearised so no effect ever precedes its cause — clock skew between
// nodes is repaired and reported.
//
//   optrec_trace_merge node0.jsonl node1.jsonl ... [flags]
//       [--out=merged.jsonl]        merged JSONL trace
//       [--chrome=merged.json]      Perfetto / chrome://tracing timeline
//       [--timeline=FILE]           BENCH_recovery_timeline.json from the
//                                   merged trace
//       [--strict]                  exit 3 when any causality violation
//                                   was flagged
//
// A summary JSON (events, nodes, matches, violations) always goes to
// stdout. Exit codes: 0 ok, 2 usage/io error, 3 violations with --strict.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/harness/run_flags.h"
#include "src/telemetry/recovery_timeline.h"
#include "src/telemetry/trace_merge.h"
#include "src/trace/trace_sink.h"
#include "src/util/json.h"

using namespace optrec;

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string out_jsonl, out_chrome, out_timeline;
  bool strict = false;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (parse_flag(arg, "--out", &v)) {
      out_jsonl = v;
    } else if (parse_flag(arg, "--chrome", &v)) {
      out_chrome = v;
    } else if (parse_flag(arg, "--timeline", &v)) {
      out_timeline = v;
    } else if (std::strcmp(arg, "--strict") == 0) {
      strict = true;
    } else if (arg[0] == '-') {
      die(std::string("unknown flag '") + arg + "'");
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) die("no input traces (usage: optrec_trace_merge *.jsonl)");

  std::vector<std::vector<TraceEvent>> traces;
  for (const std::string& path : inputs) {
    std::ifstream is(path);
    if (!is) die("cannot open '" + path + "'");
    try {
      traces.push_back(read_trace_jsonl(is));
    } catch (const std::exception& ex) {
      die(path + ": " + ex.what());
    }
  }

  telemetry::MergedTrace merged = telemetry::merge_traces(std::move(traces));

  if (!out_jsonl.empty()) {
    std::ofstream os(out_jsonl);
    if (!os) die("cannot write '" + out_jsonl + "'");
    write_trace_jsonl(os, merged.events);
  }
  if (!out_chrome.empty()) {
    std::ofstream os(out_chrome);
    if (!os) die("cannot write '" + out_chrome + "'");
    write_trace_chrome(os, merged.events);
  }
  if (!out_timeline.empty()) {
    std::ofstream os(out_timeline);
    if (!os) die("cannot write '" + out_timeline + "'");
    write_recovery_timeline_json(
        os, telemetry::analyze_recovery_timeline(merged.events));
  }

  JsonWriter w(std::cout);
  w.begin_object();
  w.kv("inputs", std::uint64_t{inputs.size()});
  w.kv("events", std::uint64_t{merged.events.size()});
  w.kv("nodes", std::uint64_t{merged.nodes});
  w.kv("wall0_us", merged.wall0_us);
  w.kv("matched_messages", std::uint64_t{merged.matched_messages});
  w.kv("matched_tokens", std::uint64_t{merged.matched_tokens});
  w.kv("cross_node_edges", std::uint64_t{merged.cross_node_edges});
  w.kv("causality_violations", std::uint64_t{merged.violations.size()});
  w.key("violations").begin_array();
  for (const std::string& violation : merged.violations) w.value(violation);
  w.end_array();
  w.end_object();
  std::cout << "\n";

  if (strict && !merged.violations.empty()) return 3;
  return 0;
}
