// Live-runtime throughput/latency bench.
//
// Not a google-benchmark microbenchmark: each measurement drives a real
// fleet of worker threads through LiveRuntime, so one run IS the timed
// unit. Every protocol runs the same workload twice — failure-free, and
// with two injected crashes — and we report wall-clock throughput,
// delivery-latency percentiles, exact piggyback bytes per message, and the
// crash-to-restart recovery time.
//
// Emits BENCH_live.json (override with --out=FILE) for CI artifact upload;
// prints a human-readable table to stdout. Exits non-zero if any run fails
// to quiesce, so CI catches live-runtime regressions.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "runtime_rows.h"
#include "src/harness/failure_plan.h"
#include "src/live/live_runtime.h"
#include "src/util/json.h"

using namespace optrec;

namespace {

bench::RuntimeRow run_one(ProtocolKind protocol, std::size_t n,
                          std::uint64_t seed, std::size_t crashes) {
  LiveConfig config;
  config.n = n;
  config.seed = seed;
  config.protocol = protocol;
  config.workload.intensity = 6;
  config.workload.depth = 48;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(10);
  config.process.checkpoint_interval = millis(50);
  config.enable_oracle = false;
  config.time_cap = millis(20000);
  if (crashes > 0) {
    Rng rng(seed * 977 + 3);
    config.crashes =
        FailurePlan::random(rng, n, crashes, millis(20), millis(120)).crashes;
  }

  LiveRuntime runtime(config);
  const LiveResult result = runtime.run();
  return bench::runtime_row(protocol, crashes > 0 ? "crashes" : "failure_free",
                            n, result.quiesced, result.wall_time,
                            result.metrics, result.delivery_latency_us);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_file = "BENCH_live.json";
  std::size_t n = 8;
  std::uint64_t seed = 1;
  std::size_t crashes = 2;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_file = arg + 6;
    } else if (std::strncmp(arg, "--n=", 4) == 0) {
      n = std::strtoull(arg + 4, nullptr, 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--crashes=", 10) == 0) {
      crashes = std::strtoull(arg + 10, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "bench_live_throughput: unknown flag '%s' "
                   "(--out= --n= --seed= --crashes=)\n",
                   arg);
      return 2;
    }
  }

  std::printf("bench_live_throughput: n=%zu seed=%llu crashes=%zu\n\n", n,
              (unsigned long long)seed, crashes);

  std::vector<bench::RuntimeRow> rows;
  for (ProtocolKind protocol : bench::kRuntimeProtocols) {
    rows.push_back(run_one(protocol, n, seed, 0));
    rows.push_back(run_one(protocol, n, seed, crashes));
  }
  // Channel fan-in sweep: with an all-to-all workload each inbox channel
  // sees n-1 producers, so n = 2/5/17 puts 1/4/16 concurrent pushers on
  // every channel — the contention axis bench_channel measures in
  // isolation, here end to end through the full protocol stack.
  std::vector<bench::RuntimeRow> fanin_rows;
  for (std::size_t fanin_n : {std::size_t{2}, std::size_t{5},
                              std::size_t{17}}) {
    bench::RuntimeRow row =
        run_one(ProtocolKind::kDamaniGarg, fanin_n, seed, 0);
    row.phase = "fanin";
    fanin_rows.push_back(row);
  }
  bench::print_runtime_tables(rows, fanin_rows);
  rows.insert(rows.end(), fanin_rows.begin(), fanin_rows.end());

  std::ofstream os(out_file, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "bench_live_throughput: cannot open '%s'\n",
                 out_file.c_str());
    return 2;
  }
  JsonWriter w(os);
  w.begin_object();
  bench::write_bench_preamble(w, "live");
  w.key("config").begin_object();
  w.kv("n", std::uint64_t{n});
  w.kv("seed", seed);
  w.kv("crashes", std::uint64_t{crashes});
  w.kv("workload", "counter");
  w.end_object();
  bench::write_runtime_rows(w, rows);
  w.end_object();
  os << "\n";
  os.flush();
  std::printf("\nwrote %s\n", out_file.c_str());
  return bench::quiescence_gate(rows);
}
