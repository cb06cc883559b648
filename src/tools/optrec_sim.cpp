// optrec_sim — command-line experiment runner.
//
// Runs one simulated distributed computation under a chosen recovery
// protocol and prints the metrics; the quickest way to poke at the system
// without writing code.
//
//   optrec_sim --protocol=damani-garg --n=6 --workload=bank
//              --crashes=2 --seed=7 --retransmit --verbose
//
// Takes the run flags shared with optrec_node ("Run flags" in README.md:
// spelling, defaults, validation, exit codes), plus two
// simulator-only switches:
//   --fifo             FIFO channels (default: arbitrary reordering)
//   --concurrent       make the --crashes simultaneous
// Partition groups (--partition=AT_MS:HEAL_MS:G0/G1) are process ids.
#include <string>

#include "src/harness/experiment.h"
#include "src/harness/run_flags.h"

using namespace optrec;

int main(int argc, char** argv) {
  const ScenarioConfig defaults;
  RunFlags flags;
  flags.workload.intensity = 6;
  flags.workload.depth = 48;
  flags.workload.all_seed = true;
  flags.process.flush_interval = millis(20);
  flags.process.checkpoint_interval = millis(100);
  flags.min_delay = defaults.network.min_delay;
  flags.max_delay = defaults.network.max_delay;
  flags.time_cap = defaults.time_cap;

  bool fifo = false;
  bool concurrent = false;
  const auto backend = [&](const char* arg) {
    if (parse_switch(arg, "--fifo")) return fifo = true;
    if (parse_switch(arg, "--concurrent")) return concurrent = true;
    return false;
  };
  if (const auto error = parse_run_flags(argc, argv, flags, backend)) {
    die(*error);
  }
  if (flags.duplicate_prob != 0.0) {
    die("--dup: the simulator has no duplicate injection");
  }
  for (const PartitionEvent& p : flags.partitions) {
    for (const auto& group : p.groups) {
      for (ProcessId pid : group) {
        if (pid >= flags.n) {
          die("--partition names process " + std::to_string(pid) +
              " but --n is " + std::to_string(flags.n));
        }
      }
    }
  }

  ScenarioConfig config;
  config.n = flags.n;
  config.seed = flags.seed;
  config.protocol = flags.protocol;
  config.workload = flags.workload;
  config.process = flags.process;
  config.network.min_delay = flags.min_delay;
  config.network.max_delay = flags.max_delay;
  config.network.drop_prob = flags.drop_prob;
  config.network.fifo = fifo;
  config.failures.crashes = flags.crash_plan(concurrent);
  config.failures.partitions = flags.partitions;
  config.enable_oracle = flags.oracle;
  config.enable_trace = flags.tracing();
  config.time_cap = flags.time_cap;

  if (!flags.metrics_json) announce_run("sim", flags);
  const ExperimentResult result = run_experiment(config);
  return finish_run(flags, run_report(config, result));
}
