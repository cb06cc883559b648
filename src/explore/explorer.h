// The exploration engine: one coverage-guided sweep driver and one shrinker,
// shared by every case kind.
//
// A case kind K pins one deterministic run as a `K::Case` and supplies what
// the engine cannot know:
//
//   K::Case generate(Rng&) const                 a fresh case
//   K::Case mutate(const K::Case&, Rng&) const   local edits of a corpus entry
//   Outcome run(const K::Case&) const            .violations and .signatures
//   std::vector<K::Case> simpler(const K::Case&) const
//                                                shrink candidates, each
//                                                strictly simpler, best first
//   void write_case(JsonWriter&, const K::Case&) const
//   K::Case read_case(const JsonValue& artifact) const
//                                                the case's artifact members
//
// plus `K::kSchema`, its repro artifact's schema string, and
// `bench_labels()`, its identity in the BENCH file. The kinds are
// ScheduleKind (src/explore/explore_case.h: adversarial network schedules
// against a protocol) and DurabilityKind (src/explore/durability_case.h:
// crash points against the durable store).
//
// Sweep: run i derives its RNG from (sweep seed, i). It mutates a corpus
// entry (65% of runs once a corpus exists) or generates a fresh case. A run
// whose coverage signatures hold a novel key joins the corpus, up to
// kCorpusLimit entries. The first violating run of each violation category
// takes a repro slot, up to max_repros, and is shrunk. Runs spread over a
// pool of worker threads, one isolated run per worker. A run is a pure
// function of its case; the sweep as a whole is deterministic at jobs=1, and
// with more workers the mutation ancestry depends on completion order, which
// is fine: every finding is pinned by its self-contained repro artifact.
//
// Shrink: each pass re-runs the kind's simpler candidates in order and keeps
// the first that still shows the expected violation category (categories
// are number-free, so the same bug against another pid still matches).
// Passes repeat until one yields nothing or the re-run budget is spent.
// Every accepted candidate was re-run, so the minimal case replays by
// construction.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/explore/coverage.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace optrec {

/// One classified violation. `kind` is the detecting check ("audit" = trace
/// auditor, "oracle" = causality oracle, "hang" = no quiescence before the
/// time cap, "durability" = recovered-state model); `category` is the
/// stable, number-free prefix of the message, used for repro slots and
/// shrink/replay matching.
struct ViolationRecord {
  std::string kind;
  std::string category;
  std::string message;
};

/// Strip digits and cut at the first ':' — "rollback budget exceeded: P2
/// rolled back 3 times..." and "...P0 rolled back 2 times..." both map to
/// "rollback budget exceeded".
std::string violation_category(std::string_view message);

/// What a repro artifact promises to reproduce. Empty kind = any violation.
struct Expectation {
  std::string kind;
  std::string category;

  bool matches(const std::vector<ViolationRecord>& violations) const;
};

/// Corpus entries a sweep keeps (coverage keeps counting past it). A
/// 40,000-run DG --retransmit --stability sweep ended with 255 entries and
/// a 20,000-run durability sweep with 35, so the bound only caps a
/// pathological sweep.
inline constexpr std::size_t kCorpusLimit = 4096;

struct SweepOptions {
  std::size_t runs = 200;
  std::uint64_t seed = 1;
  /// Worker threads; 0 = hardware concurrency (capped at 16).
  std::size_t jobs = 0;
  /// Stop admitting new runs after this much wall time (0 = no box). Used by
  /// the nightly CI job; runs already started still finish.
  double time_budget_seconds = 0;
  /// Shrink violating cases before reporting them.
  bool shrink = true;
  std::size_t shrink_budget = 300;
  /// Repro slots: one per distinct violation category, at most this many.
  std::size_t max_repros = 4;
};

struct ShrinkStats {
  std::size_t attempts = 0;      // candidate runs executed
  std::size_t improvements = 0;  // candidates accepted
};

template <class Case>
struct ReproArtifact {
  Case original;
  Case minimal;
  Expectation expect;
  ViolationRecord violation;  // from the original run
  ShrinkStats shrink_stats;
};

/// (key, value) pairs that name a sweep in its BENCH file.
using BenchLabels = std::vector<std::pair<std::string, std::string>>;

struct SweepStats {
  std::size_t runs_completed = 0;
  std::size_t violation_runs = 0;
  std::size_t coverage_buckets = 0;
  std::size_t corpus_size = 0;
  double wall_seconds = 0;
  double runs_per_second = 0;

  bool ok() const { return violation_runs == 0; }

  /// BENCH_*.json payload: the labels, then the sweep's throughput and
  /// coverage ('\n'-terminated, one line).
  std::string bench_json(const BenchLabels& labels) const;
};

template <class Case>
struct SweepReport : SweepStats {
  std::vector<ReproArtifact<Case>> repros;
};

/// Shrink `failing` against `expect`. `budget` caps candidate re-runs.
/// Returns the smallest still-failing case found (possibly `failing`).
template <class Kind>
typename Kind::Case shrink_case(const Kind& kind,
                                const typename Kind::Case& failing,
                                const Expectation& expect,
                                std::size_t budget = 300,
                                ShrinkStats* stats = nullptr) {
  ShrinkStats local;
  ShrinkStats& s = stats != nullptr ? *stats : local;
  typename Kind::Case best = failing;
  bool improved = true;
  while (improved && s.attempts < budget) {
    improved = false;
    for (typename Kind::Case& candidate : kind.simpler(best)) {
      if (s.attempts >= budget) break;
      ++s.attempts;
      if (expect.matches(kind.run(candidate).violations)) {
        best = std::move(candidate);
        ++s.improvements;
        improved = true;
        break;  // restart the pass on the simplified case
      }
    }
  }
  return best;
}

namespace explore_detail {
std::size_t worker_count(std::size_t jobs, std::size_t runs);
/// The RNG of run `index`: a function of (sweep seed, index) only.
Rng run_rng(std::uint64_t seed, std::size_t index);
void finish(SweepStats& stats, const CoverageMap& coverage,
            std::size_t corpus_size, double wall_seconds);
}  // namespace explore_detail

template <class Kind>
SweepReport<typename Kind::Case> run_sweep(const Kind& kind,
                                           const SweepOptions& options) {
  using Case = typename Kind::Case;
  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  const auto elapsed = [&started] {
    return std::chrono::duration<double>(Clock::now() - started).count();
  };

  // Shared by the workers, guarded by `mu`: the runs dominate wall time, so
  // contention here is negligible.
  std::mutex mu;
  std::size_t next_index = 0;
  bool stop = false;
  CoverageMap coverage;
  std::vector<Case> corpus;
  std::set<std::string> repro_categories;
  SweepReport<Case> report;

  const auto worker = [&] {
    for (;;) {
      Rng rng(0);
      std::optional<Case> parent;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stop || next_index >= options.runs) return;
        if (options.time_budget_seconds > 0 &&
            elapsed() > options.time_budget_seconds) {
          stop = true;
          return;
        }
        rng = explore_detail::run_rng(options.seed, next_index++);
        if (!corpus.empty() && rng.chance(0.65)) {
          parent = corpus[rng.uniform(corpus.size())];
        }
      }
      const Case c = parent ? kind.mutate(*parent, rng) : kind.generate(rng);
      const auto outcome = kind.run(c);

      std::optional<ViolationRecord> slot;
      {
        std::lock_guard<std::mutex> lock(mu);
        ++report.runs_completed;
        if (coverage.add_all(outcome.signatures) > 0 &&
            corpus.size() < kCorpusLimit) {
          corpus.push_back(c);
        }
        if (!outcome.violations.empty()) {
          ++report.violation_runs;
          const ViolationRecord& v = outcome.violations.front();
          if (repro_categories.size() < options.max_repros &&
              repro_categories.insert(v.category).second) {
            slot = v;
          }
        }
      }
      if (!slot) continue;

      ReproArtifact<Case> artifact{c, c, {slot->kind, slot->category}, *slot,
                                   {}};
      if (options.shrink) {
        artifact.minimal = shrink_case(kind, c, artifact.expect,
                                       options.shrink_budget,
                                       &artifact.shrink_stats);
      }
      std::lock_guard<std::mutex> lock(mu);
      report.repros.push_back(std::move(artifact));
    }
  };

  std::vector<std::thread> pool;
  const std::size_t jobs = explore_detail::worker_count(options.jobs,
                                                        options.runs);
  for (std::size_t k = 0; k < jobs; ++k) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  explore_detail::finish(report, coverage, corpus.size(), elapsed());
  // Deterministic artifact order regardless of worker completion order.
  std::sort(report.repros.begin(), report.repros.end(),
            [](const ReproArtifact<Case>& a, const ReproArtifact<Case>& b) {
              return a.violation.message < b.violation.message;
            });
  return report;
}

/// Repro artifact envelope, one JSON document:
///
///   {"schema": "<kind schema>", <the kind's case members>,
///    "expect": {"kind": "audit", "category": "obsolete delivery at"}}
///
/// `expect` names the violation the case was minimized against; replaying
/// the artifact re-runs the case and checks that this category fires again.
std::string repro_envelope_json(
    std::string_view schema,
    const std::function<void(JsonWriter&)>& write_case,
    const Expectation& expect);
/// Parse the envelope; throws std::runtime_error on malformed JSON or a
/// schema other than `schema`.
JsonValue parse_repro_envelope(std::string_view text, std::string_view schema,
                               Expectation* expect);
/// The artifact's "schema" string; "" when `text` carries none.
std::string repro_schema(std::string_view text);

template <class Kind>
std::string repro_to_json(const Kind& kind, const typename Kind::Case& c,
                          const Expectation& expect) {
  return repro_envelope_json(
      Kind::kSchema, [&](JsonWriter& w) { kind.write_case(w, c); }, expect);
}

template <class Kind>
typename Kind::Case parse_repro_json(const Kind& kind, std::string_view text,
                                     Expectation* expect) {
  return kind.read_case(parse_repro_envelope(text, Kind::kSchema, expect));
}

}  // namespace optrec
