#include "src/explore/explore_case.h"

#include <stdexcept>

#include "src/explore/coverage.h"
#include "src/harness/protocol_factory.h"
#include "src/harness/scenario_json.h"
#include "src/trace/trace_auditor.h"

namespace optrec {

RunOutcome run_explore_case(const ExploreCase& c) {
  ScheduleMutator mutator(c.schedule);
  ScenarioConfig config = c.scenario;
  config.enable_oracle = true;
  config.enable_trace = true;
  config.schedule_hook = &mutator;

  const ExperimentResult result = run_experiment(config);

  RunOutcome out;
  out.quiesced = result.quiesced;
  out.end_time = result.end_time;
  out.trace_digest = trace_digest(result.trace);
  out.trace_events = result.trace.size();
  out.events_total = result.metrics.messages_delivered +
                     result.metrics.rollbacks + result.metrics.restarts;

  const AuditReport audit = audit_trace(result.trace);
  for (const std::string& v : audit.violations) {
    out.violations.push_back({"audit", violation_category(v), v});
  }
  for (const std::string& v : result.violations) {
    out.violations.push_back({"oracle", violation_category(v), v});
  }
  if (!result.quiesced) {
    out.violations.push_back(
        {"hang", "non-quiescent",
         "run hit the time cap without quiescing (t=" +
             std::to_string(result.end_time) + "us)"});
  }

  out.signatures =
      coverage_signatures(result.trace, config.failures, config.n);
  return out;
}

void ScheduleKind::write_case(JsonWriter& w, const ExploreCase& c) const {
  w.key("scenario");
  write_scenario_json(w, c.scenario);
  w.key("schedule");
  write_schedule_params_json(w, c.schedule);
}

ExploreCase ScheduleKind::read_case(const JsonValue& artifact) const {
  const JsonValue* scenario = artifact.find("scenario");
  if (scenario == nullptr) throw std::runtime_error("repro missing scenario");
  ExploreCase c;
  c.scenario = scenario_from_json(*scenario);
  if (const JsonValue* schedule = artifact.find("schedule")) {
    c.schedule = schedule_params_from_json(*schedule);
  }
  return c;
}

BenchLabels ScheduleKind::bench_labels() const {
  return {{"bench", "explore"}, {"protocol", protocol_name(gen.base.protocol)}};
}

}  // namespace optrec
