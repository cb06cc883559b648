// Simulated-fleet measurement harness for the scale subsystem.
//
// Runs a full protocol Scenario at fleet sizes (hundreds of processes) and
// models the per-peer delta piggyback codec over the real message traffic:
// every application send is encoded through a per-sender DeltaWireEncoder,
// decoded through the receiver's DeltaWireDecoder, and checked byte-exact
// against the flat encoding. Each (sender, receiver) pair is one FIFO
// stream, exactly as on a TCP connection. E13 (bench_diff_piggyback) and
// tests/scale both drive this; the bench stays a thin JSON emitter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/app/workload.h"
#include "src/scale/delta_codec.h"

namespace optrec::scale {

struct FleetPiggybackConfig {
  std::size_t n = 256;
  std::uint64_t seed = 1;
  /// Traffic shape. kCounter scatters destinations (worst case for a
  /// stateful codec: at fleet width each (src,dst) stream sees ~1 message,
  /// so frames go full). kPingPong is pairwise chains — the
  /// connection-locality regime real fleets live in, where deltas win.
  WorkloadKind workload = WorkloadKind::kCounter;
  /// Workload shape: jobs seeded at P0 and hop budget. Kept small at
  /// fleet sizes — total handler executions ~= intensity * depth.
  std::uint32_t intensity = 4;
  std::uint32_t depth = 32;
  bool all_seed = false;
  std::uint32_t payload_pad = 0;
  /// Crashes injected at random times (0 = failure-free schedule).
  std::size_t crashes = 0;
  /// Ground-truth checks (causality oracle + trace audit). Costly at large
  /// n; benches enable it for crash schedules.
  bool audit = false;
};

struct FleetPiggybackReport {
  std::size_t n = 0;
  bool quiesced = false;

  // --- codec traffic model (application messages with a piggybacked clock)
  std::uint64_t app_frames = 0;
  std::uint64_t full_frames = 0;
  std::uint64_t resyncs = 0;              // should stay 0: sessions persist
  std::uint64_t fidelity_mismatches = 0;  // must be 0: decode != flat encode
  std::uint64_t flat_frame_bytes = 0;
  std::uint64_t delta_frame_bytes = 0;
  /// Bytes beyond the clock-free frame, i.e. exactly the piggyback cost
  /// (flat = serialized FTVC; delta = seq/base/checksum/changed entries).
  std::uint64_t flat_piggyback_bytes = 0;
  std::uint64_t delta_piggyback_bytes = 0;

  // --- protocol-level outcome
  std::uint64_t crashes = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t tokens_processed = 0;
  std::uint64_t max_rollbacks_per_failure = 0;
  bool oracle_enabled = false;
  std::size_t oracle_violations = 0;
  bool audit_enabled = false;
  std::size_t audit_violations = 0;
  std::string first_violation;

  double flat_piggyback_per_msg() const;
  double delta_piggyback_per_msg() const;
  /// delta/flat piggyback byte ratio (1.0 when no traffic).
  double piggyback_ratio() const;
  bool clean() const {
    return quiesced && fidelity_mismatches == 0 && oracle_violations == 0 &&
           audit_violations == 0;
  }
};

/// Run one simulated fleet and model the delta piggyback codec over its
/// application traffic.
FleetPiggybackReport run_fleet_piggyback(const FleetPiggybackConfig& config);

}  // namespace optrec::scale
