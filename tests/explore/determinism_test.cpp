// Determinism regression (exploration engine prerequisite): a Scenario is a
// pure function of its config. Running the identical ScenarioConfig twice —
// same seed, same failure plan, drops on, tracing on — must produce
// bit-identical metrics JSON and an identical trace digest, for every
// protocol. The explorer's repro artifacts and the shrinker's fixpoint both
// assume exactly this.
#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/trace/trace_event.h"

namespace optrec {
namespace {

ScenarioConfig stress_config(ProtocolKind protocol) {
  ScenarioConfig config;
  config.n = 4;
  config.seed = 20260806;
  config.protocol = protocol;
  config.workload.kind = WorkloadKind::kCounter;
  config.workload.intensity = 5;
  config.workload.depth = 30;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(15);
  config.process.checkpoint_interval = millis(80);
  config.process.retransmit_on_failure = true;
  config.network.drop_prob = 0.10;
  config.failures.crashes.push_back({millis(40), 1});
  config.failures.crashes.push_back({millis(95), 3});
  config.enable_trace = true;
  return config;
}

std::string protocol_param_name(
    const ::testing::TestParamInfo<ProtocolKind>& info) {
  std::string name = protocol_name(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class DeterminismSweep : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(DeterminismSweep, IdenticalMetricsAndTraceDigestAcrossRuns) {
  const ScenarioConfig config = stress_config(GetParam());

  const ExperimentResult first = run_experiment(config);
  const ExperimentResult second = run_experiment(config);

  EXPECT_EQ(first.quiesced, second.quiesced);
  EXPECT_EQ(first.end_time, second.end_time);
  EXPECT_EQ(run_json(run_report(config, first)),
            run_json(run_report(config, second)));

  ASSERT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace.size(), second.trace.size());
  EXPECT_EQ(trace_digest(first.trace), trace_digest(second.trace));
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, DeterminismSweep,
                         ::testing::Values(ProtocolKind::kDamaniGarg,
                                           ProtocolKind::kPessimistic,
                                           ProtocolKind::kCascading,
                                           ProtocolKind::kPetersonKearns),
                         protocol_param_name);

// The digest must actually discriminate: a different seed is a different
// causal story, and a single flipped field changes the digest.
TEST(TraceDigest, DiscriminatesRuns) {
  ScenarioConfig config = stress_config(ProtocolKind::kDamaniGarg);
  const ExperimentResult base = run_experiment(config);

  config.seed = config.seed + 1;
  const ExperimentResult other = run_experiment(config);
  EXPECT_NE(trace_digest(base.trace), trace_digest(other.trace));

  std::vector<TraceEvent> mutated = base.trace;
  ASSERT_FALSE(mutated.empty());
  mutated.back().count ^= 1;
  EXPECT_NE(trace_digest(base.trace), trace_digest(mutated));
}

}  // namespace
}  // namespace optrec
