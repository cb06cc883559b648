#include "src/telemetry/metrics_registry.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/util/json.h"

namespace optrec::telemetry {

MetricsRegistry::Instrument& MetricsRegistry::find_or_create(
    const std::string& name, const std::string& help, Labels labels,
    SampleKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto key = std::make_pair(name, labels);
  if (const auto it = index_.find(key); it != index_.end()) {
    if (it->second->kind != kind) {
      throw std::invalid_argument("metric '" + name +
                                  "' re-registered with a different kind");
    }
    return *it->second;
  }
  Instrument& inst = instruments_.emplace_back();
  inst.name = name;
  inst.help = help;
  inst.labels = std::move(labels);
  inst.kind = kind;
  index_[std::make_pair(name, inst.labels)] = &inst;
  help_.emplace(name, help);
  return inst;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help, Labels labels) {
  return find_or_create(name, help, std::move(labels), SampleKind::kCounter)
      .counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              Labels labels) {
  return find_or_create(name, help, std::move(labels), SampleKind::kGauge)
      .gauge;
}

AtomicHistogram& MetricsRegistry::histogram(const std::string& name,
                                            const std::string& help,
                                            Labels labels,
                                            std::vector<double> bounds) {
  Instrument& inst =
      find_or_create(name, help, std::move(labels), SampleKind::kHistogram);
  if (inst.histogram == nullptr) {
    inst.histogram = std::make_unique<AtomicHistogram>(
        bounds.empty() ? default_latency_bounds_us() : std::move(bounds));
  }
  return *inst.histogram;
}

void MetricsRegistry::add_collector(
    std::function<void(std::vector<Sample>&)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(fn));
}

void MetricsRegistry::describe(const std::string& name,
                               const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  help_.emplace(name, help);
}

std::vector<Sample> MetricsRegistry::collect() const {
  std::vector<Sample> out;
  std::vector<std::function<void(std::vector<Sample>&)>> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(instruments_.size());
    for (const Instrument& inst : instruments_) {
      Sample s;
      s.name = inst.name;
      s.labels = inst.labels;
      s.kind = inst.kind;
      switch (inst.kind) {
        case SampleKind::kCounter:
          s.value = static_cast<double>(inst.counter.value());
          break;
        case SampleKind::kGauge:
          s.value = static_cast<double>(inst.gauge.value());
          break;
        case SampleKind::kHistogram: {
          const FixedHistogram snap = inst.histogram->snapshot();
          s.bounds = snap.bounds();
          s.buckets = snap.bucket_counts();
          s.sum = snap.sum();
          s.count = snap.count();
          break;
        }
      }
      out.push_back(std::move(s));
    }
    collectors = collectors_;
  }
  // Collectors run outside the registry lock: they may take subsystem locks
  // of their own (per-peer queue depths take the transport's out_mu_).
  for (const auto& fn : collectors) fn(out);
  std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return out;
}

namespace {

void write_label_set(std::ostream& os, const Labels& labels) {
  if (labels.empty()) return;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ',';
    first = false;
    os << k << "=\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') os << '\\';
      os << c;
    }
    os << '"';
  }
  os << '}';
}

void write_number(std::ostream& os, double v) {
  // Counters and gauges are integral in this codebase; keep them readable.
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    os << static_cast<std::int64_t>(v);
  } else {
    os << v;
  }
}

const char* kind_name(SampleKind k) {
  switch (k) {
    case SampleKind::kCounter: return "counter";
    case SampleKind::kGauge: return "gauge";
    case SampleKind::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

void MetricsRegistry::render_prometheus(std::ostream& os) const {
  const std::vector<Sample> samples = collect();
  std::map<std::string, std::string> help;
  {
    std::lock_guard<std::mutex> lock(mu_);
    help = help_;
  }
  std::string last_family;
  for (const Sample& s : samples) {
    if (s.name != last_family) {
      last_family = s.name;
      if (const auto it = help.find(s.name); it != help.end()) {
        os << "# HELP " << s.name << ' ' << it->second << '\n';
      }
      os << "# TYPE " << s.name << ' ' << kind_name(s.kind) << '\n';
    }
    if (s.kind != SampleKind::kHistogram) {
      os << s.name;
      write_label_set(os, s.labels);
      os << ' ';
      write_number(os, s.value);
      os << '\n';
      continue;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      cumulative += s.buckets[i];
      Labels with_le = s.labels;
      if (i < s.bounds.size()) {
        std::ostringstream le;
        le << s.bounds[i];
        with_le["le"] = le.str();
      } else {
        with_le["le"] = "+Inf";
      }
      os << s.name << "_bucket";
      write_label_set(os, with_le);
      os << ' ' << cumulative << '\n';
    }
    os << s.name << "_sum";
    write_label_set(os, s.labels);
    os << ' ';
    write_number(os, s.sum);
    os << '\n';
    os << s.name << "_count";
    write_label_set(os, s.labels);
    os << ' ' << s.count << '\n';
  }
}

void MetricsRegistry::render_json(std::ostream& os) const {
  const std::vector<Sample> samples = collect();
  JsonWriter w(os);
  w.begin_object();
  w.key("metrics").begin_array();
  for (const Sample& s : samples) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("kind", kind_name(s.kind));
    if (!s.labels.empty()) {
      w.key("labels").begin_object();
      for (const auto& [k, v] : s.labels) w.kv(k, v);
      w.end_object();
    }
    if (s.kind == SampleKind::kHistogram) {
      w.kv("count", s.count);
      w.kv("sum", s.sum);
      w.kv("p50", histogram_quantile(s.bounds, s.buckets, 0.50));
      w.kv("p90", histogram_quantile(s.bounds, s.buckets, 0.90));
      w.kv("p99", histogram_quantile(s.bounds, s.buckets, 0.99));
      w.key("bounds").begin_array();
      for (const double b : s.bounds) w.value(b);
      w.end_array();
      w.key("buckets").begin_array();
      for (const std::uint64_t c : s.buckets) w.value(c);
      w.end_array();
    } else {
      w.kv("value", s.value);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace optrec::telemetry
