// optrec_live — live multi-threaded experiment runner.
//
// Runs one REAL distributed computation: each process is an OS thread, the
// traffic is wire-encoded frames over in-process MPSC channels, delays and
// crashes happen in wall time. Same protocols, same workloads, same
// post-hoc validation (causality oracle + trace auditor) as optrec_sim.
//
//   optrec_live --protocol=dg --processes=8 --crashes=2 --oracle --audit
//
// Takes exactly the run flags shared with optrec_sim and optrec_node
// ("Run flags" in README.md: spelling, defaults, validation, exit codes).
// Partition groups (--partition=AT_MS:HEAL_MS:G0/G1) are process ids.
//
// Note: the live runtime is non-FIFO by construction, so protocols that
// assume FIFO channels (peterson-kearns) are not meaningful here.
#include "src/harness/run_flags.h"
#include "src/live/live_runtime.h"

using namespace optrec;

int main(int argc, char** argv) {
  const LiveFaultConfig fault_defaults;
  RunFlags flags;
  flags.workload.intensity = 6;
  flags.workload.depth = 48;
  flags.workload.all_seed = true;
  flags.process.flush_interval = millis(10);
  flags.process.checkpoint_interval = millis(50);
  flags.min_delay = fault_defaults.min_delay;
  flags.max_delay = fault_defaults.max_delay;
  flags.time_cap = millis(15000);
  if (const auto error = parse_run_flags(argc, argv, flags, nullptr)) {
    die(*error);
  }

  LiveConfig config;
  config.n = flags.n;
  config.seed = flags.seed;
  config.protocol = flags.protocol;
  config.workload = flags.workload;
  config.process = flags.process;
  config.faults.min_delay = flags.min_delay;
  config.faults.max_delay = flags.max_delay;
  config.faults.drop_prob = flags.drop_prob;
  config.faults.duplicate_prob = flags.duplicate_prob;
  config.faults.partitions = flags.partitions;
  config.crashes = flags.crash_plan();
  config.enable_oracle = flags.oracle;
  config.enable_trace = flags.tracing();
  config.time_cap = flags.time_cap;

  if (!flags.metrics_json) announce_run("live", flags);
  LiveRuntime runtime(config);
  const LiveResult result = runtime.run();

  RunReport o;
  o.backend = "live";
  o.protocol = config.protocol;
  o.workload = config.workload;
  o.n = config.n;
  o.seed = config.seed;
  o.crashes_planned = config.crashes.size();
  o.exit_code = result.quiesced ? 0 : 4;
  o.quiesced = result.quiesced;
  o.run_time = result.wall_time;
  o.metrics = result.metrics;
  o.net = result.net;
  o.latency = &result.delivery_latency_us;
  if (runtime.oracle() != nullptr) {
    o.oracle_enabled = true;
    o.oracle_states = runtime.oracle()->state_count();
    o.violations = runtime.oracle()->check_consistency();
  }
  if (runtime.trace() != nullptr) o.trace = &runtime.trace()->events();
  return finish_run(flags, std::move(o));
}
