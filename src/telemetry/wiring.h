// Glue between the runtime's counter groups and the MetricsRegistry.
//
// Every counter group declares its /metrics families once, in its kFields
// table (src/util/counter_fields.h); this file turns table rows into
// registry samples:
//
//  * ProcessGauges — the exported rows of Metrics::kFields as per-process
//    counters. A worker thread owns its ProcessGauges and calls update()
//    with its private Metrics after every step (the same cadence as the
//    quiescence mirrors), so the telemetry endpoint sees live protocol
//    counters without ever touching another thread's Metrics block. Rows
//    are mirrored with Counter::store() — each is monotonic within its
//    owning worker, so the mirror stays a valid Prometheus counter.
//
//  * export_counters / register_counters — the pull side: groups that keep
//    their own atomics (Network::Stats, TcpStats, service and durable
//    counters) become samples on every scrape, with no hot-path
//    bookkeeping.
#pragma once

#include <utility>
#include <vector>

#include "src/harness/metrics.h"
#include "src/telemetry/metrics_registry.h"
#include "src/util/counter_fields.h"
#include "src/util/ids.h"

namespace optrec::telemetry {

/// Live per-process protocol instruments, labelled {pid="K"}: one counter
/// per exported row of Metrics::kFields, plus optrec_process_up.
class ProcessGauges {
 public:
  ProcessGauges(MetricsRegistry& registry, ProcessId pid);

  /// Mirror the worker-private Metrics into the registry. Hot-path cost:
  /// one relaxed atomic store per exported row, no locks, no lookups.
  void update(const Metrics& m);
  void set_up(bool up);
  /// Live read of the mirrored rows (the JSON-only rows read 0), for the
  /// status gossip and tests.
  Metrics mirrored() const;

 private:
  struct Row {
    std::uint64_t Metrics::*member;
    Counter* counter;
  };
  std::vector<Row> rows_;
  Gauge& up_;
};

/// Append one sample per exported row of `s`, each carrying `labels`.
template <typename S>
void export_counters(std::vector<Sample>& out, const S& s,
                     const Labels& labels = {}) {
  for (const auto& f : S::kFields) {
    if (f.family == nullptr) continue;
    out.push_back(scalar_sample(f.family,
                                f.kind == CounterKind::kCounter
                                    ? SampleKind::kCounter
                                    : SampleKind::kGauge,
                                s.*f.member, labels));
  }
}

/// Export the counter group `snap` returns through a collector: `snap`
/// runs on every scrape and must be thread-safe. Rows with help text get
/// their # HELP line.
template <typename Snap>
void register_counters(MetricsRegistry& registry, Snap snap) {
  for (const auto& f : decltype(snap())::kFields) {
    if (f.family != nullptr && *f.help != '\0') {
      registry.describe(f.family, f.help);
    }
  }
  registry.add_collector([snap = std::move(snap)](std::vector<Sample>& out) {
    export_counters(out, snap());
  });
}

}  // namespace optrec::telemetry
