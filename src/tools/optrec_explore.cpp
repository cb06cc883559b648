// optrec_explore — deterministic scenario-exploration engine CLI.
//
// Sweep mode (default): throw N seed-derived adversarial schedules — random
// delivery orders, delays, drops, duplicates, partitions, concurrent
// crashes — at a protocol, funnel every run through the causality oracle
// and the trace auditor, and shrink any violation to a minimal repro
// artifact (docs/EXPLORATION.md).
//
//   optrec_explore --protocol=dg --runs=1000 --seed=1 --out=repros/
//
// Durability mode (--durability): fuzz the file-backed stable storage
// instead of the protocol. Each case drives a deterministic storage op
// schedule against a DurableBackend over the crash-simulating in-memory
// filesystem, kills it at a random filesystem op (torn writes, partial
// group commits, garbled tails, below-floor bit flips), recovers the image,
// and checks the recovered state against the legal-state model
// (docs/DURABILITY.md). The same engine sweeps, shrinks and writes repro
// artifacts for both modes.
//
//   optrec_explore --durability --runs=400 --seed=1 --out=repros/
//   optrec_explore --durability --mutate=skip-crc --expect-violation
//
// Repro mode: replay a repro artifact and check that the recorded violation
// category fires again. The artifact holds the whole case and its schema
// string picks the case kind, so every other flag but --print-case is a
// usage error.
//
//   optrec_explore --repro=repros/repro-0.json
//
// Flags of both modes:
//   --runs=N            sweep size                            [200]
//   --seed=S            sweep seed (decides every case)       [1]
//   --jobs=K            worker threads (0 = hardware)         [0]
//   --time-budget=SEC   stop admitting runs after SEC wall s  [0 = off]
//   --no-shrink         report violations without minimizing them
//   --shrink-budget=N   candidate re-runs allowed per shrink  [300]
//   --max-repros=K      repro artifacts, one per violation category [4]
//   --out=DIR           write repro-<k>.json artifacts here   [.]
//   --bench-out=FILE    write sweep throughput/coverage JSON (BENCH_explore)
//   --mutate=NAME       fault injection, "testing the tester":
//                         none | skip-lemma4 (drop the obsolete filter);
//                       with --durability: none | skip-crc (replay trusts
//                         records without CRC checks) | async-tokens
//                         (tokens buffered instead of sync-committed)
//   --expect-violation  exit 0 iff the sweep DID find a violation (negative
//                       controls: --mutate=... or --protocol=cascading)
//   --quiet             suppress the per-violation detail lines
//   --repro=FILE        replay one artifact instead of sweeping
//   --print-case        with --repro: dump the case JSON before running
// Schedule flags (usage error with --durability):
//   --protocol=NAME     protocol under test (see optrec_sim)  [damani-garg]
//   --workload=NAME     counter | pingpong | bank | gossip    [counter]
//   --n=K               cluster size                          [4]
//   --max-crashes=K     crashes per generated case            [2]
//   --max-partitions=K  partition windows per generated case  [1]
//   --retransmit        enable Remark-1 retransmission in the base scenario
//   --stability         enable Remark-2 stability tracking + output commit
//   --no-dup            never inject duplicate copies
// Durability flags (usage error without --durability):
//   --durability        fuzz the durable storage engine instead of schedules
//   --ops=N             storage ops per case                  [48]
//   --garble=P          torn-tail garble probability          [0.4]
//   --corrupt-prob=P    below-floor bit-flip probability      [0.15]
//
// Exit codes (docs/OBSERVABILITY.md):
//   0  clean sweep / expected violation reproduced (or found, with
//      --expect-violation)
//   1  sweep found violations (repro artifacts written)
//   2  usage error
//   3  repro replay did NOT reproduce the expected violation, or an
//      --expect-violation sweep stayed clean
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/explore/durability_case.h"
#include "src/explore/explore_case.h"
#include "src/harness/protocol_factory.h"
#include "src/harness/run_flags.h"
#include "src/harness/scenario_json.h"

using namespace optrec;

namespace {

/// Flags that only one case kind takes; a sweep of the other kind rejects
/// them rather than ignoring them.
const std::vector<const char*> kScheduleFlags = {
    "--protocol",       "--workload",   "--n",         "--max-crashes",
    "--max-partitions", "--retransmit", "--stability", "--no-dup"};
const std::vector<const char*> kDurabilityFlags = {"--ops", "--garble",
                                                   "--corrupt-prob"};

struct Output {
  std::string dir = ".";
  std::string bench;
  bool expect_violation = false;
  bool quiet = false;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) die("cannot open '" + path + "'");
  out << text;
}

/// A whole-string, finite, non-negative number of seconds.
double parse_seconds(const std::string& value, const char* flag) {
  char* end = nullptr;
  const double s = std::strtod(value.c_str(), &end);
  const bool starts_numeric =
      !value.empty() && (std::isdigit(static_cast<unsigned char>(value[0])) ||
                         value[0] == '.');
  if (!starts_numeric || *end != '\0' || !std::isfinite(s)) {
    throw UsageError(std::string(flag) +
                     " wants a non-negative number of seconds, got '" + value +
                     "'");
  }
  return s;
}

template <class Kind>
int sweep(const Kind& kind, const SweepOptions& options, const Output& out) {
  const auto report = run_sweep(kind, options);
  std::printf(
      "explore: %zu runs in %.2fs (%.1f runs/s), coverage=%zu buckets, "
      "corpus=%zu, violations=%zu\n",
      report.runs_completed, report.wall_seconds, report.runs_per_second,
      report.coverage_buckets, report.corpus_size, report.violation_runs);

  if (!out.bench.empty()) {
    write_file(out.bench, report.bench_json(kind.bench_labels()));
  }
  if (!report.repros.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out.dir, ec);
  }
  for (std::size_t k = 0; k < report.repros.size(); ++k) {
    const auto& artifact = report.repros[k];
    const std::string path =
        out.dir + "/repro-" + std::to_string(k) + ".json";
    write_file(path, repro_to_json(kind, artifact.minimal, artifact.expect));
    if (!out.quiet) {
      std::printf("  !! [%s] %s\n", artifact.violation.kind.c_str(),
                  artifact.violation.message.c_str());
      std::printf(
          "     shrunk with %zu re-runs (%zu simplifications) -> %s\n",
          artifact.shrink_stats.attempts, artifact.shrink_stats.improvements,
          path.c_str());
    }
  }

  if (out.expect_violation) {
    if (report.violation_runs == 0) {
      std::printf("explore: expected a violation but the sweep was clean\n");
      return 3;
    }
    return 0;
  }
  return report.ok() ? 0 : 1;
}

template <class Kind>
int replay(const Kind& kind, const std::string& path, const std::string& text,
           bool print_case) {
  typename Kind::Case c;
  Expectation expect;
  try {
    c = parse_repro_json(kind, text, &expect);
  } catch (const std::exception& e) {
    die("bad repro file '" + path + "': " + e.what());
  }
  if (print_case) std::fputs(repro_to_json(kind, c, expect).c_str(), stdout);
  const auto outcome = kind.run(c);
  std::printf("repro %s: expected [%s] %s\n", path.c_str(),
              expect.kind.c_str(), expect.category.c_str());
  for (const ViolationRecord& v : outcome.violations) {
    std::printf("  observed [%s] %s\n", v.kind.c_str(), v.message.c_str());
  }
  if (expect.matches(outcome.violations)) {
    std::printf("repro: REPRODUCED\n");
    return 0;
  }
  std::printf("repro: NOT reproduced (%zu violation%s observed)\n",
              outcome.violations.size(),
              outcome.violations.size() == 1 ? "" : "s");
  return 3;
}

int replay_repro(const std::string& path, bool print_case) {
  const std::string text = read_file(path);
  if (repro_schema(text) == DurabilityKind::kSchema) {
    return replay(DurabilityKind{}, path, text, print_case);
  }
  return replay(ScheduleKind{}, path, text, print_case);
}

}  // namespace

int main(int argc, char** argv) {
  SweepOptions options;
  ScheduleKind schedule;
  schedule.gen.base.n = 4;
  schedule.gen.base.workload.intensity = 6;
  schedule.gen.base.workload.depth = 48;
  schedule.gen.base.workload.all_seed = true;
  schedule.gen.base.process.flush_interval = millis(20);
  schedule.gen.base.process.checkpoint_interval = millis(100);
  DurabilityKind durability;
  bool durability_mode = false;
  Output out;

  std::string value;
  std::string repro_file;
  std::string mutate;
  bool print_case = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (parse_flag(arg, "--protocol", &value)) {
        schedule.gen.base.protocol = protocol_from_name(value);
      } else if (parse_flag(arg, "--workload", &value)) {
        schedule.gen.base.workload.kind = workload_from_name(value);
      } else if (parse_flag(arg, "--n", &value)) {
        schedule.gen.base.n = parse_u64(value, "--n");
      } else if (parse_flag(arg, "--runs", &value)) {
        options.runs = parse_u64(value, "--runs");
      } else if (parse_flag(arg, "--seed", &value)) {
        options.seed = parse_u64(value, "--seed");
      } else if (parse_flag(arg, "--jobs", &value)) {
        options.jobs = parse_u64(value, "--jobs");
      } else if (parse_flag(arg, "--time-budget", &value)) {
        options.time_budget_seconds = parse_seconds(value, "--time-budget");
      } else if (parse_flag(arg, "--max-crashes", &value)) {
        schedule.gen.max_crashes = parse_u64(value, "--max-crashes");
      } else if (parse_flag(arg, "--max-partitions", &value)) {
        schedule.gen.max_partitions = parse_u64(value, "--max-partitions");
      } else if (parse_switch(arg, "--retransmit")) {
        schedule.gen.base.process.retransmit_on_failure = true;
      } else if (parse_switch(arg, "--stability")) {
        schedule.gen.base.process.enable_stability_tracking = true;
      } else if (parse_switch(arg, "--no-dup")) {
        schedule.gen.max_dup_prob = 0.0;
      } else if (parse_switch(arg, "--no-shrink")) {
        options.shrink = false;
      } else if (parse_flag(arg, "--shrink-budget", &value)) {
        options.shrink_budget = parse_u64(value, "--shrink-budget");
      } else if (parse_flag(arg, "--max-repros", &value)) {
        options.max_repros = parse_u64(value, "--max-repros");
      } else if (parse_flag(arg, "--out", &value)) {
        if (value.empty()) die("--out wants a directory");
        out.dir = value;
      } else if (parse_flag(arg, "--bench-out", &value)) {
        if (value.empty()) die("--bench-out wants a file name");
        out.bench = value;
      } else if (parse_flag(arg, "--mutate", &value)) {
        mutate = value;
      } else if (parse_switch(arg, "--durability")) {
        durability_mode = true;
      } else if (parse_flag(arg, "--ops", &value)) {
        durability.ops = static_cast<std::uint32_t>(parse_u64(value, "--ops"));
        if (durability.ops < 4) die("--ops must be >= 4");
      } else if (parse_flag(arg, "--garble", &value)) {
        durability.garble_prob = parse_probability(value, "--garble");
      } else if (parse_flag(arg, "--corrupt-prob", &value)) {
        durability.corrupt_prob = parse_probability(value, "--corrupt-prob");
      } else if (parse_switch(arg, "--expect-violation")) {
        out.expect_violation = true;
      } else if (parse_flag(arg, "--repro", &value)) {
        if (value.empty()) die("--repro wants a file name");
        repro_file = value;
      } else if (parse_switch(arg, "--print-case")) {
        print_case = true;
      } else if (parse_switch(arg, "--quiet")) {
        out.quiet = true;
      } else {
        die(std::string("unknown flag '") + arg + "' (see header comment)");
      }
    }
  } catch (const std::exception& e) {  // UsageError, unknown names
    die(e.what());
  }

  if (!repro_file.empty()) {
    for (int i = 1; i < argc; ++i) {
      if (parse_flag(argv[i], "--repro", &value) ||
          parse_switch(argv[i], "--print-case")) {
        continue;
      }
      die(std::string(argv[i]) +
          " does not apply to --repro (the artifact holds the whole case)");
    }
    return replay_repro(repro_file, print_case);
  }
  for (int i = 1; i < argc; ++i) {
    for (const char* flag : durability_mode ? kScheduleFlags
                                            : kDurabilityFlags) {
      if (!parse_flag(argv[i], flag, &value)) continue;
      die(std::string(flag) + (durability_mode
                                   ? " does not apply to --durability sweeps"
                                   : " needs --durability"));
    }
  }
  if (print_case) die("--print-case needs --repro");
  if (schedule.gen.base.n < 2) die("--n must be >= 2");
  if (options.runs == 0) die("--runs must be > 0");

  if (durability_mode) {
    if (mutate != "" && mutate != "none" && mutate != "skip-crc" &&
        mutate != "async-tokens") {
      die("--durability --mutate wants none | skip-crc | async-tokens");
    }
    if (mutate != "none") durability.mutation = mutate;
    std::printf(
        "explore: durability runs=%zu seed=%llu ops=%u garble=%.2f "
        "corrupt=%.2f%s%s\n",
        options.runs, (unsigned long long)options.seed, durability.ops,
        durability.garble_prob, durability.corrupt_prob,
        durability.mutation.empty() ? "" : " mutate=",
        durability.mutation.c_str());
    return sweep(durability, options, out);
  }

  if (mutate == "skip-lemma4") {
    schedule.gen.base.process.ablation_skip_obsolete_filter = true;
  } else if (mutate != "" && mutate != "none") {
    die("--mutate wants none | skip-lemma4");
  }
  // Only Damani-Garg filters injected duplicates (the baselines make the
  // paper's no-duplication channel assumption), so keep the negative
  // pressure honest: no duplicate injection against baselines.
  if (schedule.gen.base.protocol != ProtocolKind::kDamaniGarg) {
    schedule.gen.max_dup_prob = 0.0;
  }
  std::printf("explore: protocol=%s workload=%s n=%zu runs=%zu seed=%llu%s\n",
              protocol_name(schedule.gen.base.protocol),
              schedule.gen.base.workload.name().c_str(), schedule.gen.base.n,
              options.runs, (unsigned long long)options.seed,
              mutate == "skip-lemma4" ? " mutate=skip-lemma4" : "");
  return sweep(schedule, options, out);
}
