#include "src/telemetry/wiring.h"

#include <algorithm>
#include <string>

namespace optrec::telemetry {

namespace {

Labels pid_labels(ProcessId pid) { return {{"pid", std::to_string(pid)}}; }

}  // namespace

static_assert(std::ranges::none_of(Metrics::kFields,
                                   [](const CounterField<Metrics>& f) {
                                     return f.family != nullptr &&
                                            f.kind != CounterKind::kCounter;
                                   }),
              "ProcessGauges mirrors exported Metrics rows as counters");

ProcessGauges::ProcessGauges(MetricsRegistry& r, ProcessId pid)
    : up_(r.gauge("optrec_process_up", "1 while the process is computing",
                  pid_labels(pid))) {
  for (const auto& f : Metrics::kFields) {
    if (f.family == nullptr) continue;
    rows_.push_back({f.member, &r.counter(f.family, f.help, pid_labels(pid))});
  }
}

void ProcessGauges::update(const Metrics& m) {
  for (const Row& row : rows_) row.counter->store(m.*row.member);
}

void ProcessGauges::set_up(bool up) { up_.set(up ? 1 : 0); }

Metrics ProcessGauges::mirrored() const {
  Metrics m;
  for (const Row& row : rows_) m.*row.member = row.counter->value();
  return m;
}

}  // namespace optrec::telemetry
