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
// (docs/DURABILITY.md). Same corpus/coverage/shrinker funnel, same repro
// artifact workflow.
//
//   optrec_explore --durability --runs=400 --seed=1 --out=repros/
//   optrec_explore --durability --mutate=skip-crc --expect-violation
//
// Repro mode: replay a repro artifact and check that the recorded violation
// category fires again. The artifact's schema string picks the engine
// (schedule exploration vs durability) automatically.
//
//   optrec_explore --repro=repros/repro-0.json
//
// Flags:
//   --protocol=NAME     protocol under test (see optrec_sim)  [damani-garg]
//   --workload=NAME     counter | pingpong | bank | gossip    [counter]
//   --n=K               cluster size                          [4]
//   --runs=N            sweep size                            [200]
//   --seed=S            sweep seed (decides every schedule)   [1]
//   --jobs=K            worker threads (0 = hardware)         [0]
//   --time-budget=SEC   stop admitting runs after SEC wall s  [0 = off]
//   --max-crashes=K     crashes per generated case            [2]
//   --max-partitions=K  partition windows per generated case  [1]
//   --retransmit        enable Remark-1 retransmission in the base scenario
//   --stability         enable Remark-2 stability tracking + output commit
//   --no-dup            never inject duplicate copies
//   --no-shrink         report violations without minimizing them
//   --shrink-budget=N   candidate re-runs allowed per shrink  [300]
//   --max-repros=K      repro artifacts kept per sweep        [4]
//   --out=DIR           write repro-<k>.json artifacts here   [.]
//   --bench-out=FILE    write sweep throughput/coverage JSON (BENCH_explore)
//   --mutate=NAME       fault injection, "testing the tester":
//                         none | skip-lemma4 (drop the obsolete filter);
//                       with --durability: none | skip-crc (replay trusts
//                         records without CRC checks) | async-tokens
//                         (tokens buffered instead of sync-committed)
//   --expect-violation  exit 0 iff the sweep DID find a violation (negative
//                       controls: --mutate=... or --protocol=cascading)
//   --durability        fuzz the durable storage engine instead of schedules
//   --ops=N             durability: storage ops per case          [48]
//   --garble=P          durability: torn-tail garble probability  [0.4]
//   --corrupt-prob=P    durability: below-floor bit-flip prob.    [0.15]
//   --repro=FILE        replay one artifact instead of sweeping
//   --print-case        with --repro: dump the case JSON before running
//   --quiet             suppress the per-violation detail lines
//
// Exit codes (docs/OBSERVABILITY.md):
//   0  clean sweep / expected violation reproduced (or found, with
//      --expect-violation)
//   1  sweep found violations (repro artifacts written)
//   2  usage error
//   3  repro replay did NOT reproduce the expected violation, or an
//      --expect-violation sweep stayed clean
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/explore/durability_case.h"
#include "src/explore/explorer.h"
#include "src/harness/run_flags.h"
#include "src/harness/scenario_json.h"
#include "src/util/json.h"

using namespace optrec;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int replay_durability_repro(const std::string& path, const std::string& text,
                            bool print_case) {
  DurabilityCase c;
  Expectation expect;
  try {
    parse_durability_repro_json(text, &c, &expect);
  } catch (const std::exception& e) {
    die("bad repro file '" + path + "': " + e.what());
  }
  if (print_case) {
    std::fputs(durability_repro_to_json(c, expect).c_str(), stdout);
  }
  const DurabilityOutcome outcome = run_durability_case(c);
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
  // The schema string routes the artifact to the engine that produced it.
  if (text.find(kDurabilityReproSchema) != std::string::npos) {
    return replay_durability_repro(path, text, print_case);
  }
  ExploreCase c;
  Expectation expect;
  try {
    parse_repro_json(text, &c, &expect);
  } catch (const std::exception& e) {
    die("bad repro file '" + path + "': " + e.what());
  }
  if (print_case) {
    std::fputs(repro_to_json(c, expect).c_str(), stdout);
  }
  const RunOutcome outcome = run_explore_case(c);
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

int run_durability_mode(const DurabilitySweepOptions& dur,
                        const std::string& out_dir,
                        const std::string& bench_out, bool expect_violation,
                        bool quiet) {
  std::printf(
      "explore: durability runs=%zu seed=%llu ops=%u garble=%.2f "
      "corrupt=%.2f%s%s\n",
      dur.runs, (unsigned long long)dur.seed, dur.ops, dur.garble_prob,
      dur.corrupt_prob, dur.mutation.empty() ? "" : " mutate=",
      dur.mutation.c_str());

  const DurabilitySweepReport report = run_durability_sweep(dur);

  std::printf(
      "explore: %zu runs in %.2fs (%.1f runs/s), coverage=%zu buckets, "
      "corpus=%zu, violations=%zu\n",
      report.runs_completed, report.wall_seconds,
      report.wall_seconds > 0 ? report.runs_completed / report.wall_seconds
                              : 0.0,
      report.coverage_buckets, report.corpus_size, report.violation_runs);

  if (!bench_out.empty()) {
    std::ofstream out(bench_out, std::ios::binary);
    if (!out) die("cannot open '" + bench_out + "'");
    JsonWriter w(out);
    w.begin_object();
    w.kv("schema", "optrec-bench-durability-explore-v1");
    w.kv("runs", static_cast<std::uint64_t>(report.runs_completed));
    w.kv("wall_seconds", report.wall_seconds);
    w.kv("coverage_buckets",
         static_cast<std::uint64_t>(report.coverage_buckets));
    w.kv("corpus_size", static_cast<std::uint64_t>(report.corpus_size));
    w.kv("violation_runs", static_cast<std::uint64_t>(report.violation_runs));
    w.kv("mutation", std::string_view(dur.mutation));
    w.end_object();
    out << "\n";
  }

  std::size_t artifact_index = 0;
  if (!report.repros.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
  }
  for (const DurabilityRepro& repro : report.repros) {
    const std::string path =
        out_dir + "/repro-" + std::to_string(artifact_index++) + ".json";
    std::ofstream out(path, std::ios::binary);
    if (!out) die("cannot open '" + path + "'");
    out << durability_repro_to_json(
        repro.minimal, Expectation{repro.violation.kind,
                                   repro.violation.category});
    if (!quiet) {
      std::printf("  !! [%s] %s\n", repro.violation.kind.c_str(),
                  repro.violation.message.c_str());
      std::printf("     shrunk with %zu re-runs (%zu simplifications) -> %s\n",
                  repro.shrink_attempts, repro.shrink_improvements,
                  path.c_str());
    }
  }

  if (expect_violation) {
    if (report.violation_runs == 0) {
      std::printf("explore: expected a violation but the sweep was clean\n");
      return 3;
    }
    return 0;
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  SweepOptions options;
  options.gen.base.n = 4;
  options.gen.base.workload.intensity = 6;
  options.gen.base.workload.depth = 48;
  options.gen.base.workload.all_seed = true;
  options.gen.base.process.flush_interval = millis(20);
  options.gen.base.process.checkpoint_interval = millis(100);

  std::string value;
  std::string out_dir = ".";
  std::string bench_out;
  std::string repro_file;
  std::string mutate;
  bool durability = false;
  DurabilitySweepOptions dur;
  bool print_case = false;
  bool expect_violation = false;
  bool quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (parse_flag(arg, "--protocol", &value)) {
        options.gen.base.protocol = protocol_from_name(value);
      } else if (parse_flag(arg, "--workload", &value)) {
        options.gen.base.workload.kind = workload_from_name(value);
      } else if (parse_flag(arg, "--n", &value)) {
        options.gen.base.n = parse_u64(value, "--n");
      } else if (parse_flag(arg, "--runs", &value)) {
        options.runs = parse_u64(value, "--runs");
      } else if (parse_flag(arg, "--seed", &value)) {
        options.seed = parse_u64(value, "--seed");
      } else if (parse_flag(arg, "--jobs", &value)) {
        options.jobs = parse_u64(value, "--jobs");
      } else if (parse_flag(arg, "--time-budget", &value)) {
        options.time_budget_seconds = std::strtod(value.c_str(), nullptr);
      } else if (parse_flag(arg, "--max-crashes", &value)) {
        options.gen.max_crashes = parse_u64(value, "--max-crashes");
      } else if (parse_flag(arg, "--max-partitions", &value)) {
        options.gen.max_partitions = parse_u64(value, "--max-partitions");
      } else if (parse_switch(arg, "--retransmit")) {
        options.gen.base.process.retransmit_on_failure = true;
      } else if (parse_switch(arg, "--stability")) {
        options.gen.base.process.enable_stability_tracking = true;
      } else if (parse_switch(arg, "--no-dup")) {
        options.gen.max_dup_prob = 0.0;
      } else if (parse_switch(arg, "--no-shrink")) {
        options.shrink = false;
      } else if (parse_flag(arg, "--shrink-budget", &value)) {
        options.shrink_budget = parse_u64(value, "--shrink-budget");
      } else if (parse_flag(arg, "--max-repros", &value)) {
        options.max_repros = parse_u64(value, "--max-repros");
      } else if (parse_flag(arg, "--out", &value)) {
        if (value.empty()) die("--out wants a directory");
        out_dir = value;
      } else if (parse_flag(arg, "--bench-out", &value)) {
        if (value.empty()) die("--bench-out wants a file name");
        bench_out = value;
      } else if (parse_flag(arg, "--mutate", &value)) {
        mutate = value;
      } else if (parse_switch(arg, "--durability")) {
        durability = true;
      } else if (parse_flag(arg, "--ops", &value)) {
        dur.ops = static_cast<std::uint32_t>(parse_u64(value, "--ops"));
        if (dur.ops < 4) die("--ops must be >= 4");
      } else if (parse_flag(arg, "--garble", &value)) {
        dur.garble_prob = parse_probability(value, "--garble");
      } else if (parse_flag(arg, "--corrupt-prob", &value)) {
        dur.corrupt_prob = parse_probability(value, "--corrupt-prob");
      } else if (parse_switch(arg, "--expect-violation")) {
        expect_violation = true;
      } else if (parse_flag(arg, "--repro", &value)) {
        if (value.empty()) die("--repro wants a file name");
        repro_file = value;
      } else if (parse_switch(arg, "--print-case")) {
        print_case = true;
      } else if (parse_switch(arg, "--quiet")) {
        quiet = true;
      } else {
        die(std::string("unknown flag '") + arg + "' (see header comment)");
      }
    }
  } catch (const std::exception& e) {  // UsageError, unknown names
    die(e.what());
  }

  if (options.gen.base.n < 2) die("--n must be >= 2");
  if (!repro_file.empty()) return replay_repro(repro_file, print_case);
  if (options.runs == 0) die("--runs must be > 0");

  if (durability) {
    if (mutate != "" && mutate != "none" && mutate != "skip-crc" &&
        mutate != "async-tokens") {
      die("--durability --mutate wants none | skip-crc | async-tokens");
    }
    if (mutate != "none") dur.mutation = mutate;
    dur.runs = options.runs;
    dur.seed = options.seed;
    dur.time_budget_seconds = options.time_budget_seconds;
    dur.shrink = options.shrink;
    dur.shrink_budget = options.shrink_budget;
    dur.max_repros = options.max_repros;
    return run_durability_mode(dur, out_dir, bench_out, expect_violation,
                               quiet);
  }
  if (mutate == "skip-lemma4") {
    options.gen.base.process.ablation_skip_obsolete_filter = true;
  } else if (mutate != "" && mutate != "none") {
    die("--mutate wants none | skip-lemma4");
  }

  // Only Damani-Garg filters injected duplicates (the baselines make the
  // paper's no-duplication channel assumption), so keep the negative
  // pressure honest: no duplicate injection against baselines.
  if (options.gen.base.protocol != ProtocolKind::kDamaniGarg) {
    options.gen.max_dup_prob = 0.0;
  }

  const std::string protocol = protocol_name(options.gen.base.protocol);
  std::printf("explore: protocol=%s workload=%s n=%zu runs=%zu seed=%llu%s\n",
              protocol.c_str(), options.gen.base.workload.name().c_str(),
              options.gen.base.n, options.runs,
              (unsigned long long)options.seed,
              options.gen.base.process.ablation_skip_obsolete_filter
                  ? " mutate=skip-lemma4"
                  : "");

  const SweepReport report = run_sweep(options);

  std::printf(
      "explore: %zu runs in %.2fs (%.1f runs/s), coverage=%zu buckets, "
      "corpus=%zu, violations=%zu\n",
      report.runs_completed, report.wall_seconds, report.runs_per_second,
      report.coverage_buckets, report.corpus_size, report.violation_runs);

  if (!bench_out.empty()) {
    std::ofstream out(bench_out, std::ios::binary);
    if (!out) die("cannot open '" + bench_out + "'");
    out << report.bench_json(protocol);
  }

  std::size_t artifact_index = 0;
  if (!report.repros.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
  }
  for (const ReproArtifact& artifact : report.repros) {
    const std::string path =
        out_dir + "/repro-" + std::to_string(artifact_index++) + ".json";
    std::ofstream out(path, std::ios::binary);
    if (!out) die("cannot open '" + path + "'");
    out << repro_to_json(artifact.minimal, artifact.expect);
    if (!quiet) {
      std::printf("  !! [%s] %s\n", artifact.violation.kind.c_str(),
                  artifact.violation.message.c_str());
      std::printf(
          "     shrunk with %zu re-runs (%zu simplifications) -> %s\n",
          artifact.shrink_stats.attempts, artifact.shrink_stats.improvements,
          path.c_str());
    }
  }

  if (expect_violation) {
    if (report.violation_runs == 0) {
      std::printf("explore: expected a violation but the sweep was clean\n");
      return 3;
    }
    return 0;
  }
  return report.ok() ? 0 : 1;
}
