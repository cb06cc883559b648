#include "src/scale/fleet_model.h"

#include <utility>
#include <vector>

#include "src/harness/scenario.h"
#include "src/trace/trace_auditor.h"
#include "src/util/rng.h"
#include "src/wire/wire_codec.h"

namespace optrec::scale {

double FleetPiggybackReport::flat_piggyback_per_msg() const {
  if (app_frames == 0) return 0.0;
  return static_cast<double>(flat_piggyback_bytes) /
         static_cast<double>(app_frames);
}

double FleetPiggybackReport::delta_piggyback_per_msg() const {
  if (app_frames == 0) return 0.0;
  return static_cast<double>(delta_piggyback_bytes) /
         static_cast<double>(app_frames);
}

double FleetPiggybackReport::piggyback_ratio() const {
  if (flat_piggyback_bytes == 0) return 1.0;
  return static_cast<double>(delta_piggyback_bytes) /
         static_cast<double>(flat_piggyback_bytes);
}

FleetPiggybackReport run_fleet_piggyback(const FleetPiggybackConfig& config) {
  ScenarioConfig sc;
  sc.n = config.n;
  sc.seed = config.seed;
  sc.workload.kind = config.workload;
  sc.workload.intensity = config.intensity;
  sc.workload.depth = config.depth;
  sc.workload.all_seed = config.all_seed;
  sc.workload.payload_pad = config.payload_pad;
  sc.enable_oracle = config.audit;
  sc.enable_trace = config.audit;
  if (config.crashes > 0) {
    Rng rng(config.seed * 7919 + 17);
    sc.failures = FailurePlan::random(rng, config.n, config.crashes,
                                      millis(30), millis(400));
  }

  Scenario scenario(std::move(sc));

  FleetPiggybackReport report;
  report.n = config.n;

  // One encoder per sender (streams keyed by destination pid) and one
  // decoder per receiver (streams keyed by source pid). The simulation has a
  // single transport session, so one epoch for everyone.
  std::vector<DeltaWireEncoder> encoders;
  std::vector<DeltaWireDecoder> decoders;
  encoders.reserve(config.n);
  decoders.reserve(config.n);
  for (std::size_t i = 0; i < config.n; ++i) {
    encoders.emplace_back(config.n, /*epoch=*/1);
    decoders.emplace_back(config.n);
  }

  scenario.net().set_message_tap([&](const Message& msg) {
    if (msg.kind != MessageKind::kApp || msg.clock.size() == 0) return;
    const auto src = static_cast<std::size_t>(msg.src);
    const auto dst = static_cast<std::size_t>(msg.dst);
    if (src >= config.n || dst >= config.n) return;

    const Bytes flat = encode_message_frame(msg);
    Message bare = msg;
    bare.clock = Ftvc{};
    const std::size_t base_size = encode_message_frame(bare).size();

    Bytes wire = encoders[src].encode_for(dst, msg);
    Message decoded;
    try {
      decoded = decoders[dst].decode_from(src, wire);
    } catch (const DeltaResyncRequired&) {
      // Designed recovery path: both ends forget the base and the frame is
      // re-sent full. Never expected in-model (state is lossless here), but
      // counted so a bug shows up in the report instead of aborting the
      // bench.
      ++report.resyncs;
      encoders[src].reset(dst);
      decoders[dst].reset(src);
      wire = encoders[src].encode_for(dst, msg);
      decoded = decoders[dst].decode_from(src, wire);
    }
    if (encode_message_frame(decoded) != flat) ++report.fidelity_mismatches;

    ++report.app_frames;
    report.flat_frame_bytes += flat.size();
    report.delta_frame_bytes += wire.size();
    report.flat_piggyback_bytes += flat.size() - base_size;
    report.delta_piggyback_bytes +=
        wire.size() > base_size ? wire.size() - base_size : 0;
  });

  report.quiesced = scenario.run();

  for (const DeltaWireEncoder& e : encoders) {
    report.full_frames += e.stats().full_frames;
  }
  report.crashes = scenario.metrics().crashes;
  report.rollbacks = scenario.metrics().rollbacks;
  report.tokens_processed = scenario.metrics().tokens_processed;
  report.max_rollbacks_per_failure =
      scenario.metrics().max_rollbacks_per_process_per_failure();

  if (scenario.oracle() != nullptr) {
    report.oracle_enabled = true;
    const std::vector<std::string> violations =
        scenario.oracle()->check_consistency();
    report.oracle_violations = violations.size();
    if (!violations.empty()) report.first_violation = violations.front();
  }
  if (scenario.trace() != nullptr) {
    report.audit_enabled = true;
    const AuditReport audit = audit_trace(scenario.trace()->events());
    report.audit_violations = audit.violations.size();
    if (report.first_violation.empty() && !audit.violations.empty()) {
      report.first_violation = audit.violations.front();
    }
  }
  return report;
}

}  // namespace optrec::scale
