#include "src/harness/experiment.h"

namespace optrec {

double ExperimentResult::delivered_per_sim_second() const {
  if (end_time == 0) return 0.0;
  return static_cast<double>(metrics.messages_delivered) /
         (static_cast<double>(end_time) / 1e6);
}

ExperimentResult run_experiment(const ScenarioConfig& config) {
  Scenario scenario(config);
  ExperimentResult result;
  result.quiesced = scenario.run();
  result.end_time = scenario.sim().now();
  result.metrics = scenario.metrics();
  result.net = scenario.net().stats();
  if (scenario.oracle() != nullptr) {
    result.violations = scenario.oracle()->check_consistency();
    result.oracle_states = scenario.oracle()->state_count();
  }
  if (scenario.trace() != nullptr) {
    result.trace = scenario.trace()->take();
  }
  return result;
}

RunReport run_report(const ScenarioConfig& config,
                     const ExperimentResult& result) {
  RunReport o;
  o.backend = "sim";
  o.protocol = config.protocol;
  o.workload = config.workload;
  o.n = config.n;
  o.seed = config.seed;
  o.crashes_planned = config.failures.crashes.size();
  o.exit_code = result.quiesced ? 0 : 4;
  o.quiesced = result.quiesced;
  o.run_time = result.end_time;
  o.metrics = result.metrics;
  o.net = result.net;
  o.oracle_enabled = config.enable_oracle;
  o.oracle_states = result.oracle_states;
  o.violations = result.violations;
  if (config.enable_trace) o.trace = &result.trace;
  return o;
}

}  // namespace optrec
