// Exploration engine unit + integration tests: scenario/schedule/repro JSON
// round-trips (including artifacts of both schemas as earlier builds wrote
// them), coverage signature semantics, the schedule mutator's
// decision-stream determinism, single-case execution, the shrinker, and
// small end-to-end sweeps (a healthy DG sweep stays clean; a fault-injected
// sweep finds, shrinks, and replays a Lemma-4 violation; both case kinds
// sweep deterministically at one worker).
#include <gtest/gtest.h>

#include <set>

#include "src/explore/coverage.h"
#include "src/explore/durability_case.h"
#include "src/explore/explore_case.h"
#include "src/explore/explorer.h"
#include "src/explore/schedule_mutator.h"
#include "src/harness/scenario_json.h"

namespace optrec {
namespace {

ScenarioConfig nontrivial_config() {
  ScenarioConfig config;
  config.n = 5;
  config.seed = 987654321;
  config.protocol = ProtocolKind::kPetersonKearns;
  config.workload.kind = WorkloadKind::kPingPong;
  config.workload.intensity = 7;
  config.workload.depth = 33;
  config.workload.payload_pad = 12;
  config.workload.all_seed = false;
  config.process.checkpoint_interval = millis(77);
  config.process.flush_interval = millis(9);
  config.process.restart_delay = millis(3);
  config.process.retransmit_on_failure = true;
  config.process.enable_stability_tracking = true;
  config.process.stability_gossip_interval = millis(111);
  config.process.enable_gc = true;
  config.network.min_delay = 42;
  config.network.max_delay = 4242;
  config.network.fifo = true;
  config.network.drop_prob = 0.125;
  config.network.retry_interval = millis(7);
  config.failures.crashes.push_back({millis(31), 2});
  config.failures.crashes.push_back({millis(31), 4});
  config.failures.partitions.push_back(
      {millis(50), millis(120), {{0, 1}, {2, 3, 4}}});
  config.time_cap = seconds(120);
  config.settle_slice = millis(100);
  return config;
}

TEST(ScenarioJson, RoundTripIsExact) {
  const ScenarioConfig config = nontrivial_config();
  const std::string text = scenario_to_json(config);
  const ScenarioConfig back = parse_scenario_json(text);
  // Serialize-parse-serialize fixpoint implies field-exact round-trip for
  // everything the JSON form captures.
  EXPECT_EQ(text, scenario_to_json(back));
  EXPECT_EQ(back.n, config.n);
  EXPECT_EQ(back.seed, config.seed);
  EXPECT_EQ(back.protocol, config.protocol);
  EXPECT_EQ(back.workload.kind, config.workload.kind);
  ASSERT_EQ(back.failures.crashes.size(), 2u);
  EXPECT_EQ(back.failures.crashes[1].pid, 4u);
  ASSERT_EQ(back.failures.partitions.size(), 1u);
  EXPECT_EQ(back.failures.partitions[0].groups,
            config.failures.partitions[0].groups);
  EXPECT_EQ(back.network.fifo, true);
  EXPECT_EQ(back.process.retransmit_on_failure, true);
}

TEST(ScenarioJson, MissingMembersKeepDefaults) {
  const ScenarioConfig defaults;
  const ScenarioConfig parsed = parse_scenario_json("{\"n\": 7}");
  EXPECT_EQ(parsed.n, 7u);
  EXPECT_EQ(parsed.seed, defaults.seed);
  EXPECT_EQ(parsed.protocol, defaults.protocol);
  EXPECT_EQ(parsed.network.max_delay, defaults.network.max_delay);
  EXPECT_TRUE(parsed.failures.crashes.empty());
}

TEST(ScenarioJson, ProtocolNamesRoundTripAndAliasesParse) {
  for (ProtocolKind kind :
       {ProtocolKind::kDamaniGarg, ProtocolKind::kPessimistic,
        ProtocolKind::kCoordinated, ProtocolKind::kSenderBased,
        ProtocolKind::kCascading, ProtocolKind::kPetersonKearns,
        ProtocolKind::kPlain}) {
    EXPECT_EQ(protocol_from_name(protocol_name(kind)), kind);
  }
  EXPECT_EQ(protocol_from_name("dg"), ProtocolKind::kDamaniGarg);
  EXPECT_EQ(protocol_from_name("pk"), ProtocolKind::kPetersonKearns);
  EXPECT_THROW(protocol_from_name("quantum"), std::invalid_argument);
}

TEST(ReproJson, RoundTrip) {
  ExploreCase c;
  c.scenario = nontrivial_config();
  c.schedule.seed = 5551212;
  c.schedule.reorder_prob = 0.25;
  c.schedule.max_extra_delay = millis(60);
  c.schedule.drop_prob = 0.3;
  c.schedule.dup_prob = 0.05;
  Expectation expect{"audit", "rollback budget exceeded"};

  const std::string text = repro_to_json(ScheduleKind{}, c, expect);
  Expectation back_expect;
  const ExploreCase back =
      parse_repro_json(ScheduleKind{}, text, &back_expect);

  EXPECT_EQ(back.schedule, c.schedule);
  EXPECT_EQ(scenario_to_json(back.scenario), scenario_to_json(c.scenario));
  EXPECT_EQ(back_expect.kind, expect.kind);
  EXPECT_EQ(back_expect.category, expect.category);
}

TEST(ReproJson, RejectsWrongSchema) {
  Expectation e;
  EXPECT_THROW(
      parse_repro_json(ScheduleKind{}, "{\"schema\":\"bogus\"}", &e),
      std::runtime_error);
  EXPECT_THROW(parse_repro_json(ScheduleKind{},
                                "{\"schema\":\"optrec-durability-repro-v1\"}",
                                &e),
               std::runtime_error);
}

// Artifacts byte for byte as earlier builds wrote them, one per schema:
// they must still parse, replay, and be written back identically (the
// durability one now ends with a newline).
TEST(ReproJson, EarlierArtifactsOfBothSchemasStillReplay) {
  const char* schedule_artifact =
      R"({"schema":"optrec-explore-repro-v1","scenario":{"n":4,"seed":14645416680691684754,"protocol":"damani-garg","workload":{"kind":"counter","intensity":1,"depth":24,"payload_pad":0,"all_seed":true},"process":{"checkpoint_interval_us":100000,"flush_interval_us":20000,"restart_delay_us":5000,"retransmit_on_failure":false,"discard_rollback_suffix":false,"ablation_disable_postponement":false,"ablation_skip_obsolete_filter":true,"enable_stability_tracking":false,"stability_gossip_interval_us":200000,"enable_gc":false},"network":{"min_delay_us":100,"max_delay_us":5000,"fifo":false,"drop_prob":0,"retry_interval_us":20000},"failures":{"crashes":[{"at_us":62031,"pid":3}],"partitions":[]},"time_cap_us":600000000,"settle_slice_us":200000},"schedule":{"seed":3101807067230801653,"reorder_prob":0,"max_extra_delay_us":0,"drop_prob":0,"dup_prob":0},"expect":{"kind":"audit","category":"obsolete delivery at"}})"
      "\n";
  const char* durability_artifact =
      R"({"schema":"optrec-durability-repro-v1","case":{"seed":4881214214182272097,"ops":10,"crash_at_op":8,"garble_tail":0,"corrupt_durable":false,"mutation":"async-tokens"},"expect":{"kind":"durability","category":"durable-loss"}})";

  EXPECT_EQ(repro_schema(schedule_artifact), ScheduleKind::kSchema);
  Expectation expect;
  const ExploreCase schedule_case =
      parse_repro_json(ScheduleKind{}, schedule_artifact, &expect);
  EXPECT_EQ(expect.kind, "audit");
  EXPECT_EQ(expect.category, "obsolete delivery at");
  EXPECT_EQ(schedule_case.scenario.seed, 14645416680691684754ull);
  ASSERT_EQ(schedule_case.scenario.failures.crashes.size(), 1u);
  EXPECT_EQ(schedule_case.scenario.failures.crashes[0].pid, 3u);
  EXPECT_EQ(schedule_case.schedule.seed, 3101807067230801653ull);
  EXPECT_TRUE(expect.matches(run_explore_case(schedule_case).violations));
  EXPECT_EQ(repro_to_json(ScheduleKind{}, schedule_case, expect),
            schedule_artifact);

  EXPECT_EQ(repro_schema(durability_artifact), DurabilityKind::kSchema);
  const DurabilityCase durability_case =
      parse_repro_json(DurabilityKind{}, durability_artifact, &expect);
  EXPECT_EQ(expect.kind, "durability");
  EXPECT_EQ(expect.category, "durable-loss");
  EXPECT_EQ(durability_case.seed, 4881214214182272097ull);
  EXPECT_EQ(durability_case.ops, 10u);
  EXPECT_EQ(durability_case.crash_at_op, 8u);
  EXPECT_EQ(durability_case.garble_tail, 0.0);
  EXPECT_FALSE(durability_case.corrupt_durable);
  EXPECT_EQ(durability_case.mutation, "async-tokens");
  EXPECT_TRUE(expect.matches(run_durability_case(durability_case).violations));
  EXPECT_EQ(repro_to_json(DurabilityKind{}, durability_case, expect),
            std::string(durability_artifact) + "\n");

  EXPECT_EQ(repro_schema("not json"), "");
  EXPECT_EQ(repro_schema("{\"n\":4}"), "");
}

TEST(ViolationCategory, StripsNumbersAndDetail) {
  EXPECT_EQ(violation_category(
                "rollback budget exceeded: P0 rolled back 2 times"),
            "rollback budget exceeded");
  EXPECT_EQ(violation_category(
                "obsolete delivery at #170: P3 delivered msg 88"),
            "obsolete delivery at");
  // Same category for the same bug against different pids/counts.
  EXPECT_EQ(violation_category("frontier of P0 (state 29) is an orphan"),
            violation_category("frontier of P3 (state 141) is an orphan"));
}

TEST(ScheduleMutator, DeterministicDecisionStreams) {
  ScheduleParams params;
  params.seed = 77;
  params.reorder_prob = 0.5;
  params.max_extra_delay = millis(10);
  params.drop_prob = 0.4;
  params.dup_prob = 0.2;

  ScheduleMutator a(params);
  ScheduleMutator b(params);
  for (int i = 0; i < 200; ++i) {
    const SimTime da = a.delivery_delay(0, 1, false, 100, 5000);
    const SimTime db = b.delivery_delay(0, 1, false, 100, 5000);
    EXPECT_EQ(da, db);
    EXPECT_GE(da, 100u);
    EXPECT_LE(da, 5000u + params.max_extra_delay);
    EXPECT_EQ(a.drop_app_message(0, 1), b.drop_app_message(0, 1));
    EXPECT_EQ(a.duplicate_app_message(0, 1), b.duplicate_app_message(0, 1));
  }
}

TEST(ScheduleMutator, ZeroPressureIsPureUniformDelay) {
  ScheduleParams params;  // all pressure knobs default to 0
  params.seed = 9;
  ScheduleMutator m(params);
  for (int i = 0; i < 100; ++i) {
    const SimTime d = m.delivery_delay(1, 2, false, 50, 200);
    EXPECT_GE(d, 50u);
    EXPECT_LE(d, 200u);
    EXPECT_FALSE(m.drop_app_message(1, 2));
    EXPECT_FALSE(m.duplicate_app_message(1, 2));
  }
}

TEST(Coverage, ContextFlagsProduceDistinctKeys) {
  FailurePlan plan;
  plan.crashes.push_back({1000, 0});

  TraceEvent deliver;
  deliver.type = TraceEventType::kDeliver;
  deliver.pid = 1;

  // Same event type before vs after a crash: the down-set flag differs, so
  // the signature keys must differ.
  TraceEvent crash;
  crash.type = TraceEventType::kCrash;
  crash.pid = 0;
  crash.at = 1000;

  TraceEvent late = deliver;
  late.at = 2000;

  const auto calm = coverage_signatures({deliver}, FailurePlan::none(), 2);
  const auto stressed = coverage_signatures({crash, late}, plan, 2);
  std::set<std::uint64_t> calm_keys(calm.begin(), calm.end());
  bool found_new = false;
  for (std::uint64_t k : stressed) {
    if (!calm_keys.count(k)) found_new = true;
  }
  EXPECT_TRUE(found_new);
}

TEST(Coverage, MapCountsOnlyNovelKeys) {
  CoverageMap map;
  EXPECT_EQ(map.add_all({1, 2, 3}), 3u);
  EXPECT_EQ(map.add_all({2, 3, 4}), 1u);
  EXPECT_EQ(map.add_all({1, 2, 3, 4}), 0u);
  EXPECT_EQ(map.size(), 4u);
  EXPECT_TRUE(map.contains(4));
  EXPECT_FALSE(map.contains(5));
}

ScenarioConfig explorer_base() {
  ScenarioConfig base;
  base.n = 4;
  base.workload.kind = WorkloadKind::kCounter;
  base.workload.intensity = 4;
  base.workload.depth = 24;
  base.workload.all_seed = true;
  base.process.flush_interval = millis(20);
  base.process.checkpoint_interval = millis(100);
  return base;
}

TEST(CaseMutator, GeneratedCasesStayInBounds) {
  ScheduleKind kind;
  const CaseGenOptions& options = kind.gen;
  kind.gen.base = explorer_base();
  Rng rng(42);
  for (int i = 0; i < 50; ++i) {
    const ExploreCase c = kind.generate(rng);
    EXPECT_EQ(c.scenario.schedule_hook, nullptr);
    EXPECT_LE(c.scenario.failures.crashes.size(), options.max_crashes);
    EXPECT_LE(c.scenario.failures.partitions.size(), options.max_partitions);
    EXPECT_LE(c.schedule.drop_prob, options.max_drop_prob);
    EXPECT_LE(c.schedule.dup_prob, options.max_dup_prob);
    EXPECT_LE(c.schedule.max_extra_delay, options.max_extra_delay);
    for (const CrashEvent& crash : c.scenario.failures.crashes) {
      EXPECT_LT(crash.pid, c.scenario.n);
      EXPECT_LE(crash.at, options.fault_window);
    }
    for (const PartitionEvent& p : c.scenario.failures.partitions) {
      EXPECT_GT(p.heal_at, p.at);
      EXPECT_GE(p.groups.size(), 2u);
    }
    const ExploreCase m = kind.mutate(c, rng);
    EXPECT_LE(m.scenario.failures.crashes.size(), options.max_crashes);
    EXPECT_LE(m.schedule.drop_prob, options.max_drop_prob);
  }
}

TEST(RunExploreCase, DeterministicAndCleanForDg) {
  ExploreCase c;
  c.scenario = explorer_base();
  c.scenario.seed = 31337;
  c.scenario.failures.crashes.push_back({millis(30), 2});
  c.schedule.seed = 99;
  c.schedule.reorder_prob = 0.3;
  c.schedule.max_extra_delay = millis(40);
  c.schedule.drop_prob = 0.2;

  const RunOutcome a = run_explore_case(c);
  const RunOutcome b = run_explore_case(c);
  EXPECT_TRUE(a.quiesced);
  EXPECT_TRUE(a.ok()) << a.first()->message;
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_FALSE(a.signatures.empty());
  EXPECT_EQ(a.signatures, b.signatures);
}

// A pinned case that violates Lemma 4 when the obsolete filter is ablated
// (fault injection: "testing the tester"). Shrinking it must preserve the
// violation category, and the minimal case must replay.
ExploreCase lemma4_ablated_case() {
  ExploreCase c;
  c.scenario = explorer_base();
  c.scenario.seed = 16872994931356387390ull;
  c.scenario.workload.intensity = 6;
  c.scenario.workload.depth = 48;
  c.scenario.process.ablation_skip_obsolete_filter = true;
  c.scenario.failures.crashes.push_back({10634, 3});
  c.schedule.seed = 10219647317266604413ull;
  return c;
}

TEST(RunExploreCase, AblatedLemma4FilterIsCaught) {
  const RunOutcome outcome = run_explore_case(lemma4_ablated_case());
  ASSERT_FALSE(outcome.ok());
  Expectation expect{"audit", "obsolete delivery at"};
  EXPECT_TRUE(expect.matches(outcome.violations));
}

TEST(Shrinker, MinimizesAndStaysFailing) {
  const ExploreCase failing = lemma4_ablated_case();
  const Expectation expect{"audit", "obsolete delivery at"};

  ShrinkStats stats;
  const ExploreCase minimal =
      shrink_case(ScheduleKind{}, failing, expect, 200, &stats);
  EXPECT_GT(stats.attempts, 0u);

  // The minimal case still reproduces the expected category...
  const RunOutcome outcome = run_explore_case(minimal);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(expect.matches(outcome.violations));
  // ...and is no bigger than the original along the shrink dimensions.
  EXPECT_LE(minimal.scenario.failures.crashes.size(),
            failing.scenario.failures.crashes.size());
  EXPECT_LE(minimal.scenario.workload.intensity,
            failing.scenario.workload.intensity);
  EXPECT_LE(minimal.scenario.n, failing.scenario.n);
}

ScheduleKind schedule_kind(bool skip_lemma4 = false) {
  ScheduleKind kind;
  kind.gen.base = explorer_base();
  kind.gen.base.process.ablation_skip_obsolete_filter = skip_lemma4;
  return kind;
}

TEST(Sweep, HealthyDgSweepIsClean) {
  SweepOptions options;
  options.runs = 40;
  options.seed = 11;
  options.jobs = 2;
  const SweepReport<ExploreCase> report = run_sweep(schedule_kind(), options);
  EXPECT_EQ(report.runs_completed, 40u);
  EXPECT_TRUE(report.ok()) << (report.repros.empty()
                                   ? std::string("violations without repros")
                                   : report.repros[0].violation.message);
  EXPECT_GT(report.coverage_buckets, 0u);
  EXPECT_GT(report.corpus_size, 0u);
  EXPECT_TRUE(report.repros.empty());
}

TEST(Sweep, FaultInjectedSweepFindsShrinksAndReplays) {
  SweepOptions options;
  options.runs = 60;
  options.seed = 3;
  options.jobs = 2;
  options.shrink_budget = 120;
  options.max_repros = 1;

  const ScheduleKind kind = schedule_kind(/*skip_lemma4=*/true);
  const SweepReport<ExploreCase> report = run_sweep(kind, options);
  ASSERT_FALSE(report.ok());
  ASSERT_FALSE(report.repros.empty());

  const ReproArtifact<ExploreCase>& artifact = report.repros[0];
  // The artifact is self-contained: replaying the minimal case through the
  // same entry point reproduces the recorded violation category.
  const RunOutcome replay = run_explore_case(artifact.minimal);
  ASSERT_FALSE(replay.ok());
  EXPECT_TRUE(artifact.expect.matches(replay.violations));

  // And it survives the JSON round-trip used by `optrec_explore --repro`.
  const std::string text = repro_to_json(kind, artifact.minimal,
                                         artifact.expect);
  Expectation parsed_expect;
  const ExploreCase parsed = parse_repro_json(kind, text, &parsed_expect);
  const RunOutcome from_json = run_explore_case(parsed);
  EXPECT_TRUE(parsed_expect.matches(from_json.violations));
}

// Every violating run competes for a slot, but each category gets one: a
// sweep that hits the same bug in many runs writes one artifact for it.
TEST(Sweep, ReproSlotsGoToDistinctCategories) {
  SweepOptions options;
  options.runs = 100;
  options.seed = 3;
  options.jobs = 2;
  options.shrink = false;
  options.max_repros = 4;
  const SweepReport<ExploreCase> report =
      run_sweep(schedule_kind(/*skip_lemma4=*/true), options);
  ASSERT_GT(report.violation_runs, report.repros.size());
  ASSERT_FALSE(report.repros.empty());
  std::set<std::string> categories;
  for (const ReproArtifact<ExploreCase>& artifact : report.repros) {
    EXPECT_EQ(artifact.expect.category, artifact.violation.category);
    EXPECT_TRUE(categories.insert(artifact.expect.category).second)
        << "two artifacts for [" << artifact.expect.category << "]";
  }
}

template <class Kind>
void expect_deterministic_at_one_worker(const Kind& kind,
                                        SweepOptions options) {
  options.jobs = 1;
  const auto a = run_sweep(kind, options);
  const auto b = run_sweep(kind, options);
  EXPECT_EQ(a.runs_completed, options.runs);
  EXPECT_EQ(a.runs_completed, b.runs_completed);
  EXPECT_EQ(a.violation_runs, b.violation_runs);
  EXPECT_EQ(a.coverage_buckets, b.coverage_buckets);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  ASSERT_EQ(a.repros.size(), b.repros.size());
  for (std::size_t i = 0; i < a.repros.size(); ++i) {
    EXPECT_EQ(a.repros[i].expect.category, b.repros[i].expect.category);
    EXPECT_EQ(repro_to_json(kind, a.repros[i].minimal, a.repros[i].expect),
              repro_to_json(kind, b.repros[i].minimal, b.repros[i].expect));
  }
}

TEST(Sweep, SingleThreadedSweepIsDeterministic) {
  SweepOptions options;
  options.runs = 25;
  options.seed = 5;
  expect_deterministic_at_one_worker(schedule_kind(), options);

  // The durability kind, with an ablation so there are repros to compare.
  DurabilityKind durability;
  durability.ops = 40;
  durability.mutation = "async-tokens";
  options.runs = 150;
  options.shrink_budget = 60;
  expect_deterministic_at_one_worker(durability, options);
}

TEST(Sweep, BenchJsonHasTheContractFields) {
  SweepOptions options;
  options.runs = 5;
  options.jobs = 1;
  const std::vector<std::string> counters = {
      "runs", "violation_runs", "wall_seconds", "runs_per_second",
      "coverage_buckets", "corpus_size"};

  const ScheduleKind schedule = schedule_kind();
  const std::string explore =
      run_sweep(schedule, options).bench_json(schedule.bench_labels());
  const JsonValue e = JsonValue::parse(explore);
  EXPECT_EQ(e.find("bench")->as_string(), "explore");
  EXPECT_EQ(e.find("protocol")->as_string(), "damani-garg");
  EXPECT_EQ(e.u64_or("runs", 0), 5u);
  for (const std::string& key : counters) {
    EXPECT_NE(e.find(key), nullptr) << "BENCH_explore.json: no " << key;
  }

  DurabilityKind durability;
  durability.mutation = "skip-crc";
  const std::string dur =
      run_sweep(durability, options).bench_json(durability.bench_labels());
  const JsonValue d = JsonValue::parse(dur);
  EXPECT_EQ(d.find("schema")->as_string(),
            "optrec-bench-durability-explore-v1");
  EXPECT_EQ(d.find("mutation")->as_string(), "skip-crc");
  EXPECT_EQ(d.u64_or("runs", 0), 5u);
  for (const std::string& key : counters) {
    EXPECT_NE(d.find(key), nullptr)
        << "BENCH_durability_explore.json: no " << key;
  }
}

}  // namespace
}  // namespace optrec
