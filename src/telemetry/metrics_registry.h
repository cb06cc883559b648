// MetricsRegistry: the live, thread-safe metrics store behind the telemetry
// endpoint (docs/OBSERVABILITY.md).
//
// Three instrument kinds, all lock-free on the hot path:
//
//  * Counter    — monotonic relaxed-atomic u64 (inc/add). Also supports
//                 store() for instruments that mirror an externally
//                 maintained monotonic count (per-worker Metrics sync).
//  * Gauge      — relaxed-atomic i64 point-in-time value (set/add).
//  * Histogram  — AtomicHistogram (src/telemetry/histogram.h).
//
// Registration (name + label set -> stable reference) takes a mutex but
// happens once per instrument at setup; after that every update is a single
// atomic op. Scrapes walk the instrument table under the same mutex — cold
// by construction — and additionally invoke registered COLLECTORS, callbacks
// that pull samples from subsystems which already keep their own atomics
// (TcpTransport socket counters, Network stats) so those are exported
// without double bookkeeping on the hot path.
//
// Rendering: Prometheus text exposition (/metrics) and a JSON snapshot
// (/metrics.json), both deterministic functions of the sample set.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "src/telemetry/histogram.h"

namespace optrec::telemetry {

using Labels = std::map<std::string, std::string>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Mirror an externally maintained monotonic count (worker Metrics sync).
  void store(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

enum class SampleKind { kCounter, kGauge, kHistogram };

/// One exported value: scalar, or — for kHistogram — the full bucket set.
struct Sample {
  std::string name;
  Labels labels;
  SampleKind kind = SampleKind::kGauge;
  double value = 0;
  /// kHistogram only.
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (+inf last)
  double sum = 0;
  std::uint64_t count = 0;
};

/// A scalar counter or gauge sample, as collectors emit them.
inline Sample scalar_sample(std::string name, SampleKind kind,
                            std::uint64_t value, Labels labels = {}) {
  Sample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.kind = kind;
  s.value = static_cast<double>(value);
  return s;
}

class MetricsRegistry {
 public:
  /// Look up or create. Help text is recorded on first registration; the
  /// returned reference stays valid for the registry's lifetime.
  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels labels = {});
  AtomicHistogram& histogram(const std::string& name, const std::string& help,
                             Labels labels = {},
                             std::vector<double> bounds = {});

  /// Register a pull-style exporter invoked on every collect(). The callback
  /// must be thread-safe; it appends fully formed samples.
  void add_collector(std::function<void(std::vector<Sample>&)> fn);
  /// Record the help text of a family a collector exports.
  void describe(const std::string& name, const std::string& help);

  /// Every instrument plus every collector's samples, sorted by
  /// (name, labels) so rendering is deterministic.
  std::vector<Sample> collect() const;

  /// Prometheus text exposition format (one # HELP/# TYPE pair per family).
  void render_prometheus(std::ostream& os) const;
  /// JSON snapshot: {"metrics": [{name, labels, kind, value|histogram}...]}.
  void render_json(std::ostream& os) const;

 private:
  struct Instrument {
    std::string name;
    std::string help;
    Labels labels;
    SampleKind kind = SampleKind::kGauge;
    // Exactly one is used, per kind. deque storage keeps references stable.
    Counter counter;
    Gauge gauge;
    std::unique_ptr<AtomicHistogram> histogram;
  };

  Instrument& find_or_create(const std::string& name, const std::string& help,
                             Labels labels, SampleKind kind);

  mutable std::mutex mu_;
  std::deque<Instrument> instruments_;
  std::map<std::pair<std::string, Labels>, Instrument*> index_;
  std::map<std::string, std::string> help_;  // family -> help text
  std::vector<std::function<void(std::vector<Sample>&)>> collectors_;
};

}  // namespace optrec::telemetry
