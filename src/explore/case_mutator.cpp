// The schedule kind's search moves: generation, mutation and the shrink
// candidates.
#include <algorithm>

#include "src/explore/explore_case.h"

namespace optrec {

namespace {

CrashEvent random_crash(const CaseGenOptions& options, Rng& rng) {
  CrashEvent e;
  e.pid = static_cast<ProcessId>(rng.uniform(options.base.n));
  e.at = rng.uniform(options.fault_window + 1);
  return e;
}

PartitionEvent random_partition(const CaseGenOptions& options, Rng& rng) {
  PartitionEvent e;
  e.at = rng.uniform(options.fault_window + 1);
  e.heal_at = e.at + millis(5) + rng.uniform(options.fault_window + 1);
  e.groups.assign(2, {});
  for (ProcessId pid = 0; pid < options.base.n; ++pid) {
    e.groups[rng.uniform(2)].push_back(pid);
  }
  // A one-sided split is a no-op partition; force at least one island.
  if (e.groups[0].empty() || e.groups[1].empty()) {
    const ProcessId lone = static_cast<ProcessId>(rng.uniform(options.base.n));
    e.groups[0].assign({lone});
    e.groups[1].clear();
    for (ProcessId pid = 0; pid < options.base.n; ++pid) {
      if (pid != lone) e.groups[1].push_back(pid);
    }
  }
  return e;
}

void sort_crashes(FailurePlan& plan) {
  std::sort(plan.crashes.begin(), plan.crashes.end(),
            [](const CrashEvent& a, const CrashEvent& b) { return a.at < b.at; });
}

}  // namespace

ExploreCase ScheduleKind::generate(Rng& rng) const {
  ExploreCase c;
  c.scenario = gen.base;
  c.scenario.schedule_hook = nullptr;  // installed per-run, never inherited
  c.scenario.seed = rng.next_u64();
  c.schedule.seed = rng.next_u64();

  c.schedule.reorder_prob = rng.chance(0.75) ? rng.uniform01() * 0.5 : 0.0;
  c.schedule.max_extra_delay =
      c.schedule.reorder_prob > 0 ? rng.uniform(gen.max_extra_delay + 1) : 0;
  c.schedule.drop_prob =
      rng.chance(0.5) ? rng.uniform01() * gen.max_drop_prob : 0.0;
  c.schedule.dup_prob =
      rng.chance(0.35) ? rng.uniform01() * gen.max_dup_prob : 0.0;

  c.scenario.failures = FailurePlan::none();
  const std::size_t crashes = rng.uniform(gen.max_crashes + 1);
  for (std::size_t k = 0; k < crashes; ++k) {
    c.scenario.failures.crashes.push_back(random_crash(gen, rng));
  }
  // Concurrent failures are a headline paper scenario: sometimes align them.
  if (crashes >= 2 && rng.chance(0.3)) {
    for (CrashEvent& e : c.scenario.failures.crashes) {
      e.at = c.scenario.failures.crashes.front().at;
    }
  }
  sort_crashes(c.scenario.failures);

  const std::size_t partitions = rng.uniform(gen.max_partitions + 1);
  for (std::size_t k = 0; k < partitions; ++k) {
    c.scenario.failures.partitions.push_back(random_partition(gen, rng));
  }
  return c;
}

ExploreCase ScheduleKind::mutate(const ExploreCase& parent, Rng& rng) const {
  ExploreCase c = parent;
  c.scenario.schedule_hook = nullptr;
  const std::size_t edits = 1 + rng.uniform(3);
  for (std::size_t k = 0; k < edits; ++k) {
    switch (rng.uniform(12)) {
      case 0:
        c.schedule.seed = rng.next_u64();
        break;
      case 1:
        c.scenario.seed = rng.next_u64();
        break;
      case 2:
        c.schedule.reorder_prob = rng.uniform01() * 0.5;
        if (c.schedule.max_extra_delay == 0) {
          c.schedule.max_extra_delay = rng.uniform(gen.max_extra_delay + 1);
        }
        break;
      case 3:
        c.schedule.max_extra_delay = rng.uniform(gen.max_extra_delay + 1);
        break;
      case 4:
        c.schedule.drop_prob = rng.uniform01() * gen.max_drop_prob;
        break;
      case 5:
        c.schedule.dup_prob = rng.uniform01() * gen.max_dup_prob;
        break;
      case 6:
        if (c.scenario.failures.crashes.size() < gen.max_crashes) {
          c.scenario.failures.crashes.push_back(random_crash(gen, rng));
          sort_crashes(c.scenario.failures);
        }
        break;
      case 7:
        if (!c.scenario.failures.crashes.empty()) {
          c.scenario.failures.crashes.erase(
              c.scenario.failures.crashes.begin() +
              rng.uniform(c.scenario.failures.crashes.size()));
        }
        break;
      case 8:
        if (!c.scenario.failures.crashes.empty()) {
          c.scenario.failures
              .crashes[rng.uniform(c.scenario.failures.crashes.size())]
              .at = rng.uniform(gen.fault_window + 1);
          sort_crashes(c.scenario.failures);
        }
        break;
      case 9:
        // Align every crash on one instant (concurrent-failure pressure).
        if (c.scenario.failures.crashes.size() >= 2) {
          for (CrashEvent& e : c.scenario.failures.crashes) {
            e.at = c.scenario.failures.crashes.front().at;
          }
        }
        break;
      case 10:
        if (c.scenario.failures.partitions.size() < gen.max_partitions) {
          c.scenario.failures.partitions.push_back(
              random_partition(gen, rng));
        } else if (!c.scenario.failures.partitions.empty()) {
          c.scenario.failures.partitions.erase(
              c.scenario.failures.partitions.begin() +
              rng.uniform(c.scenario.failures.partitions.size()));
        }
        break;
      case 11:
        if (!c.scenario.failures.partitions.empty()) {
          PartitionEvent& e =
              c.scenario.failures
                  .partitions[rng.uniform(c.scenario.failures.partitions.size())];
          e.at = rng.uniform(gen.fault_window + 1);
          e.heal_at = e.at + millis(5) + rng.uniform(gen.fault_window + 1);
        }
        break;
    }
  }
  return c;
}

std::vector<ExploreCase> ScheduleKind::simpler(const ExploreCase& c) const {
  std::vector<ExploreCase> out;
  const auto with = [&](auto edit) {
    out.push_back(c);
    edit(out.back());
  };

  // 1. Structural fault-plan reductions first: fewer faults beats smaller
  // knobs for a human reading the repro.
  for (std::size_t i = 0; i < c.scenario.failures.crashes.size(); ++i) {
    with([i](ExploreCase& e) {
      auto& crashes = e.scenario.failures.crashes;
      crashes.erase(crashes.begin() + i);
    });
  }
  for (std::size_t i = 0; i < c.scenario.failures.partitions.size(); ++i) {
    with([i](ExploreCase& e) {
      auto& partitions = e.scenario.failures.partitions;
      partitions.erase(partitions.begin() + i);
    });
  }

  // 2. Schedule pressure: zero each knob, then halve what must stay. (The
  // network's own drop_prob is not a candidate: with the mutator installed
  // the network never reads it.)
  const ScheduleParams& s = c.schedule;
  if (s.dup_prob != 0) {
    with([](ExploreCase& e) { e.schedule.dup_prob = 0; });
  }
  if (s.drop_prob != 0) {
    with([](ExploreCase& e) { e.schedule.drop_prob = 0; });
  }
  if (s.reorder_prob != 0 || s.max_extra_delay != 0) {
    with([](ExploreCase& e) {
      e.schedule.reorder_prob = 0;
      e.schedule.max_extra_delay = 0;
    });
  }
  if (s.max_extra_delay >= millis(2)) {
    with([](ExploreCase& e) { e.schedule.max_extra_delay /= 2; });
  }
  if (s.drop_prob >= 0.02) {
    with([](ExploreCase& e) { e.schedule.drop_prob /= 2; });
  }
  if (s.dup_prob >= 0.02) {
    with([](ExploreCase& e) { e.schedule.dup_prob /= 2; });
  }

  // 3. Optional protocol machinery off.
  const ProcessConfig& p = c.scenario.process;
  if (p.enable_stability_tracking || p.enable_gc) {
    with([](ExploreCase& e) {
      e.scenario.process.enable_stability_tracking = false;
      e.scenario.process.enable_gc = false;
    });
  }
  if (p.retransmit_on_failure) {
    with([](ExploreCase& e) {
      e.scenario.process.retransmit_on_failure = false;
    });
  }

  // 4. Workload size.
  if (c.scenario.workload.intensity > 1) {
    with([](ExploreCase& e) { e.scenario.workload.intensity /= 2; });
  }
  if (c.scenario.workload.depth > 2) {
    with([](ExploreCase& e) { e.scenario.workload.depth /= 2; });
  }

  // 5. Cluster size (only when no crash targets the last process).
  const std::size_t keep = c.scenario.n - 1;
  const auto needs_last = [keep](const CrashEvent& crash) {
    return crash.pid >= keep;
  };
  if (c.scenario.n > 2 && std::none_of(c.scenario.failures.crashes.begin(),
                                       c.scenario.failures.crashes.end(),
                                       needs_last)) {
    with([keep](ExploreCase& e) {
      e.scenario.n = keep;
      for (PartitionEvent& p : e.scenario.failures.partitions) {
        for (auto& group : p.groups) {
          std::erase_if(group, [keep](ProcessId pid) { return pid >= keep; });
        }
        std::erase_if(p.groups, [](const std::vector<ProcessId>& g) {
          return g.empty();
        });
      }
    });
  }
  return out;
}

}  // namespace optrec
