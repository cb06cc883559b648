// One-shot experiment runner: build a Scenario, run to quiescence, collect
// the numbers every bench and integration test wants.
#pragma once

#include <string>
#include <vector>

#include "src/harness/run_flags.h"
#include "src/harness/scenario.h"

namespace optrec {

struct ExperimentResult {
  bool quiesced = false;
  SimTime end_time = 0;
  Metrics metrics;
  Network::Stats net;
  /// Oracle consistency violations (empty when the surviving global state is
  /// consistent); empty as well when the oracle was disabled.
  std::vector<std::string> violations;
  std::size_t oracle_states = 0;
  /// Structured protocol event trace; populated iff `config.enable_trace`.
  std::vector<TraceEvent> trace;

  /// Wall-clock-free "goodput": app messages delivered (first time, not
  /// replay) per simulated second.
  double delivered_per_sim_second() const;
};

ExperimentResult run_experiment(const ScenarioConfig& config);

/// The simulator's RunReport (backend "sim") for finish_run() and
/// run_json(). Points into `result`, which must outlive it.
RunReport run_report(const ScenarioConfig& config,
                     const ExperimentResult& result);

}  // namespace optrec
