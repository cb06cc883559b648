// The schedule case kind: one fully pinned adversarial run — a
// ScenarioConfig plus the ScheduleParams that drive the network's delivery
// decisions — and the generation, mutation and shrink moves the engine
// (src/explore/explorer.h) applies to it.
//
// Its repro artifact (schema "optrec-explore-repro-v1") carries the case as
//
//   "scenario": { ...scenario_json... },
//   "schedule": { "seed": ..., "reorder_prob": ..., ... }
#pragma once

#include <string_view>
#include <vector>

#include "src/explore/explorer.h"
#include "src/explore/schedule_mutator.h"
#include "src/harness/experiment.h"
#include "src/harness/scenario.h"

namespace optrec {

struct ExploreCase {
  ScenarioConfig scenario;
  ScheduleParams schedule;
};

/// Everything one exploration run produced.
struct RunOutcome {
  bool quiesced = false;
  SimTime end_time = 0;
  std::vector<ViolationRecord> violations;
  std::vector<std::uint64_t> signatures;
  std::uint64_t trace_digest = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t events_total = 0;  // deliveries+rollbacks etc. (size proxy)

  bool ok() const { return violations.empty(); }
  /// First violation, for reporting ({} when ok()).
  const ViolationRecord* first() const {
    return violations.empty() ? nullptr : &violations.front();
  }
};

/// Execute one case: force trace+oracle on, install a ScheduleMutator, run
/// to quiescence, classify every oracle/auditor violation, extract coverage
/// signatures. Deterministic: equal cases give equal outcomes.
RunOutcome run_explore_case(const ExploreCase& c);

/// Generation randomizes the *adversarial* dimensions around a fixed base
/// scenario (protocol, workload, cluster size stay as configured): crash
/// counts/times — including deliberately concurrent crashes — partition
/// windows and group splits, reorder/drop/duplicate pressure, and both the
/// workload seed and the schedule seed.
struct CaseGenOptions {
  /// Template scenario; the generator only rewrites seeds, failures and
  /// (through ScheduleParams) the network decision stream.
  ScenarioConfig base;
  std::size_t max_crashes = 2;
  std::size_t max_partitions = 1;
  /// Crashes and partition windows land in [0, fault_window].
  SimTime fault_window = millis(250);
  SimTime max_extra_delay = millis(80);
  double max_drop_prob = 0.35;
  /// Duplicate injection ceiling; set to 0 for protocols without a
  /// duplicate filter (the paper's model does not require one of them).
  double max_dup_prob = 0.15;
};

struct ScheduleKind {
  using Case = ExploreCase;
  static constexpr std::string_view kSchema = "optrec-explore-repro-v1";

  CaseGenOptions gen;

  ExploreCase generate(Rng& rng) const;
  /// One to three local edits of `parent`.
  ExploreCase mutate(const ExploreCase& parent, Rng& rng) const;
  RunOutcome run(const ExploreCase& c) const { return run_explore_case(c); }
  /// Greedy delta-debugging candidates: drop a crash, drop a partition
  /// window, zero then halve the schedule pressure, switch off optional
  /// protocol machinery, halve the workload, shrink the cluster.
  std::vector<ExploreCase> simpler(const ExploreCase& c) const;
  void write_case(JsonWriter& w, const ExploreCase& c) const;
  ExploreCase read_case(const JsonValue& artifact) const;
  BenchLabels bench_labels() const;
};

}  // namespace optrec
