#include "src/explore/explorer.h"

#include <cctype>
#include <sstream>
#include <stdexcept>

namespace optrec {

std::string violation_category(std::string_view message) {
  const auto colon = message.find(':');
  if (colon != std::string_view::npos) message = message.substr(0, colon);
  std::string out;
  out.reserve(message.size());
  for (char ch : message) {
    if (!std::isdigit(static_cast<unsigned char>(ch))) out.push_back(ch);
  }
  // Collapse the "#" left behind by "... at #123" style messages.
  while (!out.empty() && (out.back() == '#' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

bool Expectation::matches(
    const std::vector<ViolationRecord>& violations) const {
  if (kind.empty()) return !violations.empty();
  for (const ViolationRecord& v : violations) {
    if (v.kind == kind && (category.empty() || v.category == category)) {
      return true;
    }
  }
  return false;
}

std::string SweepStats::bench_json(const BenchLabels& labels) const {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  for (const auto& [key, value] : labels) w.kv(key, std::string_view(value));
  w.kv("runs", std::uint64_t{runs_completed});
  w.kv("violation_runs", std::uint64_t{violation_runs});
  w.kv("wall_seconds", wall_seconds);
  w.kv("runs_per_second", runs_per_second);
  w.kv("coverage_buckets", std::uint64_t{coverage_buckets});
  w.kv("corpus_size", std::uint64_t{corpus_size});
  w.end_object();
  os << '\n';
  return os.str();
}

namespace explore_detail {

std::size_t worker_count(std::size_t jobs, std::size_t runs) {
  if (jobs == 0) {
    jobs = std::min<std::size_t>(
        16, std::max(1u, std::thread::hardware_concurrency()));
  }
  return std::min(jobs, runs == 0 ? std::size_t{1} : runs);
}

Rng run_rng(std::uint64_t seed, std::size_t index) {
  std::uint64_t z = seed ^ (index * 0x9e3779b97f4a7c15ull);
  // SplitMix64 finalizer, so neighbouring indices get unrelated streams.
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return Rng(z ^ (z >> 31));
}

void finish(SweepStats& stats, const CoverageMap& coverage,
            std::size_t corpus_size, double wall_seconds) {
  stats.coverage_buckets = coverage.size();
  stats.corpus_size = corpus_size;
  stats.wall_seconds = wall_seconds;
  stats.runs_per_second =
      wall_seconds > 0
          ? static_cast<double>(stats.runs_completed) / wall_seconds
          : 0.0;
}

}  // namespace explore_detail

std::string repro_envelope_json(
    std::string_view schema,
    const std::function<void(JsonWriter&)>& write_case,
    const Expectation& expect) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", schema);
  write_case(w);
  w.key("expect").begin_object();
  w.kv("kind", std::string_view(expect.kind));
  w.kv("category", std::string_view(expect.category));
  w.end_object();
  w.end_object();
  os << '\n';
  return os.str();
}

JsonValue parse_repro_envelope(std::string_view text, std::string_view schema,
                               Expectation* expect) {
  JsonValue doc = JsonValue::parse(text);
  const JsonValue* s = doc.find("schema");
  if (s == nullptr || s->kind() != JsonValue::Kind::kString ||
      s->as_string() != schema) {
    throw std::runtime_error("not an " + std::string(schema) + " document");
  }
  *expect = Expectation{};
  if (const JsonValue* e = doc.find("expect")) {
    if (const JsonValue* k = e->find("kind")) expect->kind = k->as_string();
    if (const JsonValue* cat = e->find("category")) {
      expect->category = cat->as_string();
    }
  }
  return doc;
}

std::string repro_schema(std::string_view text) {
  try {
    const JsonValue doc = JsonValue::parse(text);
    const JsonValue* s = doc.find("schema");
    if (s != nullptr && s->kind() == JsonValue::Kind::kString) {
      return s->as_string();
    }
  } catch (const std::runtime_error&) {
    // Malformed: no schema; the kind's own parse reports the error.
  }
  return "";
}

}  // namespace optrec
